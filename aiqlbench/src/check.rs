//! Answer checking: result fingerprints, independent oracles, and the
//! failure ledger every timed operation reports into.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aiql_baseline::relational::RelationalEngine;
use aiql_engine::{analyze_multievent, reference, EngineError, ResultTable};
use aiql_lang::{parse_query, Query};
use aiql_model::Value;
use aiql_storage::EventStore;

/// An order-insensitive digest of a result table: its columns, the
/// multiset of its rows, and its truncation flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub digest: u64,
    pub truncated: bool,
}

fn mix(mut h: u64, x: u64) -> u64 {
    h ^= x;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 29)
}

fn value_bits(v: &Value) -> (u64, u64) {
    match *v {
        Value::Null => (0, 0),
        Value::Int(i) => (1, i as u64),
        Value::Float(f) => (2, f.to_bits()),
        Value::Str(s) => (3, u64::from(s.raw())),
        Value::Ip(ip) => (4, u64::from(ip.0)),
        Value::Time(t) => (5, t.0 as u64),
        Value::Bool(b) => (6, u64::from(b)),
    }
}

/// Finalizer that spreads a row hash before it is summed, so the multiset
/// sum does not cancel structured differences.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

pub fn fingerprint(t: &ResultTable) -> Fingerprint {
    let mut digest = t
        .columns
        .iter()
        .flat_map(|c| c.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| mix(h, u64::from(b)));
    let mut rows_sum = 0u64;
    for row in &t.rows {
        let h = row.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            let (tag, bits) = value_bits(v);
            mix(mix(h, tag), bits)
        });
        rows_sum = rows_sum.wrapping_add(avalanche(h));
    }
    digest = mix(digest, rows_sum);
    Fingerprint {
        rows: t.rows.len() as u64,
        digest,
        truncated: t.truncated,
    }
}

/// The answer of an implementation that shares no execution code with the
/// engine: the brute-force reference for multievent and dependency
/// queries, the relational baseline for anomaly queries (the reference
/// has no windowed aggregation).
pub fn oracle(store: &EventStore, text: &str) -> Result<ResultTable, EngineError> {
    let m = match parse_query(text)? {
        Query::Multievent(m) => m,
        Query::Dependency(d) => aiql_lang::dependency_to_multievent(&d)?,
        Query::Anomaly(_) => return RelationalEngine::default().execute_text(store, text),
    };
    reference::run_reference(store, &analyze_multievent(&m, store)?)
}

/// The message a panic carried.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Failure ledger: what was attempted, what failed, and why.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, as `label: reason`.
    pub messages: Vec<String>,
    pub panics: u64,
}

/// Failure messages kept per run; the count is always exact.
const KEPT_MESSAGES: usize = 20;

impl Ledger {
    pub fn fail(&mut self, label: &str, reason: String) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(format!("{label}: {reason}"));
        }
    }

    /// Runs one operation under `catch_unwind`. A panic, an error, or a
    /// result whose fingerprint differs from `expect` is a failure. The
    /// result is returned only when the operation completed.
    pub fn run<T>(
        &mut self,
        label: &str,
        f: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => match check(&v) {
                Ok(()) => Some(v),
                Err(why) => {
                    self.fail(label, format!("wrong answer: {why}"));
                    Some(v)
                }
            },
            Ok(Err(e)) => {
                self.fail(label, format!("error: {e}"));
                None
            }
            Err(payload) => {
                self.panics += 1;
                self.fail(label, format!("panic: {}", panic_message(&*payload)));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.panics += other.panics;
        for m in other.messages {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(m);
            }
        }
        self.failed += other.failed;
    }
}

/// `Ok` when `got` matches `want`.
pub fn same(want: Fingerprint, got: &ResultTable) -> Result<(), String> {
    let fp = fingerprint(got);
    if fp == want {
        Ok(())
    } else {
        Err(format!("fingerprint {fp:?}, expected {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: Vec<Vec<Value>>) -> ResultTable {
        let mut t = ResultTable::new(vec!["a".into(), "b".into()]);
        t.rows = rows;
        t
    }

    #[test]
    fn fingerprint_ignores_row_order_only() {
        let a = table(vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
        ]);
        let b = table(vec![
            vec![Value::Int(3), Value::Int(4)],
            vec![Value::Int(1), Value::Int(2)],
        ]);
        let c = table(vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(4)],
        ]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let mut d = a.clone();
        d.truncated = true;
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    #[test]
    fn ledger_counts_errors_panics_and_wrong_answers() {
        let mut l = Ledger::default();
        assert_eq!(l.run("ok", || Ok(1), |_| Ok(())), Some(1));
        assert_eq!(
            l.run("err", || Err::<u8, _>("boom".into()), |_| Ok(())),
            None
        );
        assert_eq!(l.run("wrong", || Ok(2), |_| Err("nope".into())), Some(2));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = l.run::<u8>("panic", || panic!("kaboom"), |_| Ok(()));
        std::panic::set_hook(prev);
        assert_eq!(r, None);
        assert_eq!((l.attempted, l.failed, l.panics), (4, 3, 1));
        assert!(l.messages[2].contains("kaboom"));
    }
}
