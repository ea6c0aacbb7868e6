//! The fleet fingerprint depends only on the seed and the device set:
//! not on the worker thread count, and not on how devices are cut into
//! shards.

use tics_perfbench::fleet::pass_fingerprint;

#[test]
fn fleet_fingerprint_ignores_threads_and_shard_size() {
    let base = pass_fingerprint(7, 12, 4, 1).unwrap();
    assert_eq!(base.ops(), 7 * 12);
    for (shard, threads) in [(4, 2), (6, 1), (6, 2)] {
        assert_eq!(
            pass_fingerprint(7, 12, shard, threads).unwrap(),
            base,
            "{shard}-device shards on {threads} threads"
        );
    }
    assert_ne!(
        pass_fingerprint(8, 12, 4, 2).unwrap(),
        base,
        "another seed, other devices"
    );
}
