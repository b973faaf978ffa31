//! Deterministic work gate for snapshot publishing: streaming the demo
//! scenario's second half through a snapshot-mode `SharedStore` must copy
//! dictionary entries in proportion to the dictionary, not to the number of
//! publishes times the dictionary. The scale and batch size are the
//! benchmark's `ingest` workload's.

use aiql_sim::{scenario_demo, Scale};
use aiql_storage::{EventStore, SharedStore, StoreConfig};

/// Events per streamed batch: one snapshot publish each.
const BATCH: usize = 512;

#[test]
fn streaming_publishes_copy_a_bounded_share_of_the_dictionary() {
    let sc = scenario_demo(Scale {
        hosts: 8,
        events_per_host: 25_000,
        ..Scale::default()
    });
    let (head, tail) = sc.raws.split_at(sc.raws.len() / 2);
    let mut store = EventStore::new(StoreConfig::default());
    store.ingest_all(head);
    let shared = SharedStore::new(store);
    let before = shared.stats();
    let mut batches = 0u64;
    let mut per_epoch_copies = 0u64;
    for batch in tail.chunks(BATCH) {
        let epoch = shared.read(|s| s.dict_epoch());
        shared.write(|s| s.ingest_all(batch));
        batches += 1;
        // What a copy of the whole dictionary per dictionary epoch paid.
        let now = shared.read(|s| (s.dict_epoch(), s.entities().len() as u64));
        if now.0 != epoch {
            per_epoch_copies += now.1;
        }
    }
    let after = shared.stats();
    let copied = after.dict_entries_copied - before.dict_entries_copied;
    let grown = after.entities - before.entities;
    eprintln!(
        "{batches} batches, dictionary {} -> {} entities: {copied} entries copied \
         (a copy per dictionary epoch: {per_epoch_copies})",
        before.entities, after.entities
    );
    assert!(
        grown > 0 && batches > 20,
        "the stream must grow the dictionary"
    );
    // Each publish leaves the writer at most one delta copy (the delta is
    // at most an eighth of the base), and each merge at most one base copy.
    assert!(
        copied <= 16 * after.entities,
        "{copied} entries copied for a {}-entity dictionary",
        after.entities
    );
    assert!(
        copied * 8 < per_epoch_copies,
        "{copied} entries copied vs {per_epoch_copies} for a copy per dictionary epoch"
    );
}
