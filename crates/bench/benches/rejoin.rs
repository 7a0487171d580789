//! Scaling of MARK-REJOINING-PATHS (paper Figure 15).
//!
//! The paper argues the worst case is O(n·e) but the post-order visit
//! makes it almost always linear in the edges. This bench runs the pass
//! over diamond-chain CFGs of growing size.

use criterion::{BenchmarkId, Criterion, criterion_group, criterion_main};
use rsel_core::select::rejoin::mark_rejoining_paths;

/// A chain of `n` diamonds over slots (the entry is slot 0): entry ->
/// (a_i | b_i) -> join_i -> ..., with only every fourth join initially
/// marked.
fn diamond_chain(n: usize) -> (Vec<Vec<usize>>, Vec<bool>) {
    let mut succs: Vec<Vec<usize>> = vec![Vec::new()];
    let mut marked = vec![true];
    let mut cur = 0;
    for i in 0..n {
        let a = succs.len();
        let (b, join) = (a + 1, a + 2);
        succs[cur].extend([a, b]);
        succs.extend([vec![join], vec![join], Vec::new()]);
        marked.extend([false, false, i % 4 == 0]);
        cur = join;
    }
    (succs, marked)
}

fn rejoin_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mark_rejoining_paths");
    for n in [8usize, 32, 128, 512] {
        let (succs, marked) = diamond_chain(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let r = mark_rejoining_paths(&succs, marked.clone());
                std::hint::black_box(r.marked.iter().filter(|&&m| m).count())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, rejoin_scaling);
criterion_main!(benches);
