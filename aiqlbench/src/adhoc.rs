//! Ad-hoc investigation lookups.
//!
//! An analyst who spots an unfamiliar process or file types a one-off
//! `LIKE` lookup for it. These queries are generated from a scenario's raw
//! events — the telemetry the agents sent, never the engine's dictionary —
//! so every entity literal names something that really happened on that
//! host, and every lookup finds at least one event. The same raw events
//! and seed always give the same queries.

use std::collections::BTreeSet;

use aiql_storage::{EntitySpec, RawEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The last path component of an executable or file name.
fn basename(path: &str) -> &str {
    path.rsplit(['/', '\\']).next().unwrap_or(path)
}

/// A literal usable inside an AIQL string constraint.
fn literal(path: &str) -> Option<&str> {
    let b = basename(path);
    (!b.is_empty() && !b.contains(['"', '\\', '%'])).then_some(b)
}

/// The lookup an analyst would type about one raw event, if its entities
/// have usable names.
fn lookup_for(raw: &RawEvent, date: &str) -> Option<String> {
    // A cross-host edge's object lives on another agent than the one the
    // `agentid` clause names.
    if raw.object_agent.is_some() {
        return None;
    }
    let EntitySpec::Process { exe_name, .. } = &raw.subject else {
        return None;
    };
    let exe = literal(exe_name)?;
    let header = format!("(at \"{date}\") agentid = {}", raw.agent.raw());
    let op = raw.op.keyword();
    Some(match &raw.object {
        EntitySpec::File { name, .. } => format!(
            "{header}\nproc p[\"%{exe}\"] {op} file f[\"%{}\"] as evt\nreturn distinct p, f, evt.amount",
            literal(name)?
        ),
        EntitySpec::Process { exe_name: child, .. } => format!(
            "{header}\nproc p1[\"%{exe}\"] {op} proc p2[\"%{}\"] as evt\nreturn distinct p1, p2",
            literal(child)?
        ),
        // "How much did it move over this connection?"
        EntitySpec::NetConn { dst_ip, .. } => format!(
            "{header}\nproc p[\"%{exe}\"] {op} ip i[dstip = \"{dst_ip}\"] as evt\nreturn p, i, sum(evt.amount) as bytes\ngroup by p, i"
        ),
    })
}

/// `count` distinct lookups drawn uniformly from the scenario's vocabulary:
/// every distinct lookup its raw events support is equally likely, however
/// many events stand behind it. Fewer when the vocabulary is smaller.
pub fn lookups(raws: &[RawEvent], date: &str, seed: u64, count: usize) -> Vec<String> {
    let vocabulary: BTreeSet<String> = raws.iter().filter_map(|r| lookup_for(r, date)).collect();
    let mut pool: Vec<String> = vocabulary.into_iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let take = count.min(pool.len());
    // Partial Fisher-Yates: the first `take` slots become the sample.
    for i in 0..take {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// `MM/DD/YYYY`, the form AIQL's `at` clause takes.
pub fn aiql_date((y, m, d): (i32, u32, u32)) -> String {
    format!("{m:02}/{d:02}/{y}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_sim::{scenario_demo, Scale};

    fn scenario() -> aiql_sim::Scenario {
        scenario_demo(Scale::test())
    }

    #[test]
    fn same_seed_same_queries() {
        let s = scenario();
        let date = aiql_date(s.day);
        let a = lookups(&s.raws, &date, 11, 200);
        let b = lookups(&s.raws, &date, 11, 200);
        let c = lookups(&s.raws, &date, 12, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 200);
    }

    #[test]
    fn every_query_parses() {
        let s = scenario();
        for q in lookups(&s.raws, &aiql_date(s.day), 3, 300) {
            if let Err(e) = aiql_lang::parse_query(&q) {
                panic!("{q}\n{e}");
            }
        }
    }

    #[test]
    fn every_query_finds_the_event_it_was_drawn_from() {
        let s = scenario();
        let store = aiql_sim::build_store(&s, aiql_storage::StoreConfig::default());
        let engine = aiql_engine::Engine::default();
        for q in lookups(&s.raws, &aiql_date(s.day), 5, 60) {
            let t = engine.execute_text(&store, &q).unwrap();
            assert!(!t.rows.is_empty(), "{q}");
        }
    }

    #[test]
    fn basenames_strip_both_separators() {
        assert_eq!(basename("C:\\Windows\\cmd.exe"), "cmd.exe");
        assert_eq!(basename("/usr/bin/python3"), "python3");
        assert_eq!(literal("/tmp/a\"b"), None);
    }

    #[test]
    fn dates_are_zero_padded() {
        assert_eq!(aiql_date((2018, 3, 19)), "03/19/2018");
    }
}
