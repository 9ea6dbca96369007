//! Bit fingerprint of the surrogate benchmark's offline training data
//! (`collect_samples`). The constant was captured from the code as it
//! stood; it must only change together with an intended, documented
//! change of the collection recipe.

use dbtune_benchmark::collect::collect_samples;
use dbtune_core::space::TuningSpace;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn collected_dataset_is_pinned() {
    // The buffer pool on the small host crashes in its upper range, so
    // both collection phases score failures.
    let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::A, 13);
    let cat = sim.catalog().clone();
    let selected = ["innodb_buffer_pool_size", "innodb_flush_log_at_trx_commit", "sync_binlog"]
        .iter()
        .map(|n| cat.expect_index(n))
        .collect();
    let space = TuningSpace::with_default_base(&cat, selected, Hardware::A);
    let ds = collect_samples(&mut sim, &space, 40, 6);
    assert_eq!(ds.y.len(), 40);
    let words =
        ds.x.iter()
            .flat_map(|c| c.iter().map(|v| v.to_bits()))
            .chain(ds.y.iter().map(|v| v.to_bits()));
    assert_eq!(fnv1a(words), 12527438387509042638, "collect_samples fingerprint");
}
