//! Marking paths that rejoin frequently-occurring blocks
//! (paper Figure 15, MARK-REJOINING-PATHS).

use crate::fxhash::{self, FxHashSet};
use rsel_program::Addr;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// The result of the rejoin-marking pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejoinResult {
    /// All marked blocks (frequent blocks plus rejoining paths).
    pub marked: HashSet<Addr>,
    /// Number of whole-CFG iterations performed. The paper observes the
    /// post-order visit almost always converges in one iteration
    /// (§4.2.3: "roughly 0.1% of regions ... proceed to mark additional
    /// blocks in the second").
    pub iterations: usize,
}

/// Marks every block of the observed-trace CFG that lies on a path
/// rejoining an initially marked block.
///
/// Initially marked blocks are those occurring in at least `T_min`
/// observed traces. Every block of the CFG is reachable from the entry
/// (which is always marked), so a block belongs in the region exactly
/// when a marked block is reachable *from* it — marks therefore
/// propagate backward along edges: "if any successor of a block is
/// marked, the block is marked". Blocks are visited in post-order so
/// marks cross several blocks per iteration; iteration repeats until a
/// fixpoint.
pub fn mark_rejoining_paths<S: BuildHasher>(
    entry: Addr,
    nodes: &[Addr],
    edges: &HashMap<Addr, Vec<Addr>, S>,
    initially_marked: &HashSet<Addr>,
) -> RejoinResult {
    let mut marked = initially_marked.clone();
    let order = postorder(entry, nodes, edges);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in &order {
            if marked.contains(&b) {
                continue;
            }
            let has_marked_succ = edges
                .get(&b)
                .is_some_and(|succs| succs.iter().any(|s| marked.contains(s)));
            if has_marked_succ {
                marked.insert(b);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    RejoinResult { marked, iterations }
}

/// Post-order traversal of the CFG from `entry`; unreachable nodes (none
/// in practice — every observed block is reachable from the entry) are
/// appended afterwards in the given order.
fn postorder<S: BuildHasher>(
    entry: Addr,
    nodes: &[Addr],
    edges: &HashMap<Addr, Vec<Addr>, S>,
) -> Vec<Addr> {
    let mut out = Vec::with_capacity(nodes.len());
    let mut visited: FxHashSet<Addr> = fxhash::set_with_capacity(nodes.len());
    // Iterative DFS with an explicit (node, child-cursor) stack.
    let mut stack: Vec<(Addr, usize)> = vec![(entry, 0)];
    visited.insert(entry);
    const EMPTY: &[Addr] = &[];
    while let Some((node, cursor)) = stack.pop() {
        let succs = edges.get(&node).map(Vec::as_slice).unwrap_or(EMPTY);
        if cursor < succs.len() {
            stack.push((node, cursor + 1));
            let child = succs[cursor];
            if visited.insert(child) {
                stack.push((child, 0));
            }
        } else {
            out.push(node);
        }
    }
    for &n in nodes {
        if visited.insert(n) {
            out.push(n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u64) -> Addr {
        Addr::new(x)
    }

    fn edges(pairs: &[(u64, u64)]) -> HashMap<Addr, Vec<Addr>> {
        let mut m: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for &(f, t) in pairs {
            m.entry(a(f)).or_default().push(a(t));
        }
        m
    }

    #[test]
    fn rejoining_path_is_marked() {
        // entry 1 -> 2 -> 4 (all frequent), 1 -> 3 -> 4 (3 infrequent).
        // Block 3 exits a marked block and rejoins 4, so it is marked.
        let nodes = vec![a(1), a(2), a(3), a(4)];
        let e = edges(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        let init: HashSet<Addr> = [a(1), a(2), a(4)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert!(r.marked.contains(&a(3)));
        assert_eq!(r.marked.len(), 4);
    }

    #[test]
    fn dead_end_side_path_is_not_marked() {
        // 1 -> 2 (frequent); 1 -> 3 -> 5, never rejoining.
        let nodes = vec![a(1), a(2), a(3), a(5)];
        let e = edges(&[(1, 2), (1, 3), (3, 5)]);
        let init: HashSet<Addr> = [a(1), a(2)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert!(!r.marked.contains(&a(3)));
        assert!(!r.marked.contains(&a(5)));
        assert_eq!(r.marked.len(), 2);
    }

    #[test]
    fn chain_of_infrequent_blocks_marks_in_one_iteration() {
        // 1 -> 2 -> 3 -> 4 -> 5(frequent): post-order visits 4 before 3
        // before 2, so the whole chain marks in a single pass.
        let nodes = vec![a(1), a(2), a(3), a(4), a(5)];
        let e = edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let init: HashSet<Addr> = [a(1), a(5)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert_eq!(r.marked.len(), 5);
        // One productive iteration + one to detect the fixpoint.
        assert!(
            r.iterations <= 2,
            "post-order converges fast: {}",
            r.iterations
        );
    }

    #[test]
    fn back_edges_can_take_an_extra_iteration_but_terminate() {
        // A cycle of infrequent blocks around a frequent one.
        let nodes = vec![a(1), a(2), a(3), a(4)];
        let e = edges(&[(1, 2), (2, 3), (3, 2), (3, 4)]);
        let init: HashSet<Addr> = [a(1), a(4)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert!(r.marked.contains(&a(2)) && r.marked.contains(&a(3)));
        assert!(r.iterations <= 3);
    }

    #[test]
    fn no_marks_beyond_fixpoint() {
        // Nothing new to mark: single frequent entry, one dead-end succ.
        let nodes = vec![a(1), a(2)];
        let e = edges(&[(1, 2)]);
        let init: HashSet<Addr> = [a(1)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert_eq!(r.marked.len(), 1);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn self_loop_terminates() {
        let nodes = vec![a(1), a(2)];
        let e = edges(&[(1, 1), (1, 2)]);
        let init: HashSet<Addr> = [a(1)].into_iter().collect();
        let r = mark_rejoining_paths(a(1), &nodes, &e, &init);
        assert!(r.marked.contains(&a(1)));
        assert!(!r.marked.contains(&a(2)));
    }
}
