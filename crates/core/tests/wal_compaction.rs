//! WAL compaction through the facade, in a test binary of its own: the
//! threshold is read from the process-global `SWDB_WAL_COMPACT` on every
//! `persist_to` / `open`, so setting it here must not race the sibling
//! durability tests, whose fault sites count the write-points of an
//! uncompacted log.

use swdb_core::SemanticWebDatabase;
use swdb_model::triple;

/// WAL compaction: past the threshold the log rotates into a snapshot on
/// its own, and the recovered state is unaffected.
#[test]
fn wal_compaction_rotates_automatically_and_preserves_state() {
    let dir = std::env::temp_dir().join(format!("swdb-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SWDB_WAL_COMPACT", "5");
    let mut db = SemanticWebDatabase::new();
    let result = db.persist_to(&dir);
    std::env::remove_var("SWDB_WAL_COMPACT");
    result.expect("persist");

    for i in 0..12 {
        db.insert(triple(format!("ex:s{i}").as_str(), "ex:p", "ex:o"));
    }
    assert!(db.is_durable());
    assert!(
        db.wal_records() <= 5,
        "compaction must have rotated: {} live records",
        db.wal_records()
    );
    let expected = (db.graph().to_graph(), db.closure(), db.regime());
    drop(db);
    let recovered = SemanticWebDatabase::open(&dir).expect("reopen");
    assert_eq!(
        (
            recovered.graph().to_graph(),
            recovered.closure(),
            recovered.regime()
        ),
        expected
    );
    let _ = std::fs::remove_dir_all(&dir);
}
