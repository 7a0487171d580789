//! Marking paths that rejoin frequently-occurring blocks
//! (paper Figure 15, MARK-REJOINING-PATHS).

/// The result of the rejoin-marking pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejoinResult {
    /// Per slot, whether the block is marked (frequent blocks plus
    /// rejoining paths).
    pub marked: Vec<bool>,
    /// Number of whole-CFG iterations performed. The paper observes the
    /// post-order visit almost always converges in one iteration
    /// (§4.2.3: "roughly 0.1% of regions ... proceed to mark additional
    /// blocks in the second").
    pub iterations: usize,
}

/// Marks every block of the observed-trace CFG that lies on a path
/// rejoining an initially marked block.
///
/// Blocks are numbered by slot, the entry is slot 0, and `succs[s]`
/// lists the successor slots of slot `s`. Initially marked blocks
/// (`initially_marked[s]`, one flag per slot) are those occurring in
/// at least `T_min` observed traces. Every block of the CFG is
/// reachable from the entry (which is always marked), so a block
/// belongs in the region exactly when a marked block is reachable
/// *from* it — marks therefore propagate backward along edges: "if any
/// successor of a block is marked, the block is marked". Blocks are
/// visited in post-order so marks cross several blocks per iteration;
/// iteration repeats until a fixpoint.
///
/// # Panics
///
/// Panics if `initially_marked` and `succs` differ in length, `succs`
/// is empty, or a successor slot is out of range.
pub fn mark_rejoining_paths(succs: &[Vec<usize>], initially_marked: Vec<bool>) -> RejoinResult {
    assert_eq!(succs.len(), initially_marked.len(), "one mark per slot");
    let mut marked = initially_marked;
    let order = postorder(succs);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in &order {
            if !marked[b] && succs[b].iter().any(|&s| marked[s]) {
                marked[b] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    RejoinResult { marked, iterations }
}

/// Post-order traversal of the CFG from the entry (slot 0); unreachable
/// slots (none in practice — every observed block is reachable from the
/// entry) are appended afterwards in slot order.
fn postorder(succs: &[Vec<usize>]) -> Vec<usize> {
    let mut out = Vec::with_capacity(succs.len());
    let mut visited = vec![false; succs.len()];
    // Iterative DFS with an explicit (node, child-cursor) stack.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    visited[0] = true;
    while let Some((node, cursor)) = stack.pop() {
        if let Some(&child) = succs[node].get(cursor) {
            stack.push((node, cursor + 1));
            if !visited[child] {
                visited[child] = true;
                stack.push((child, 0));
            }
        } else {
            out.push(node);
        }
    }
    out.extend((0..succs.len()).filter(|&n| !visited[n]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Successor lists over slots `0..n` from `(from, to)` pairs.
    fn succs(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); n];
        for &(f, t) in pairs {
            out[f].push(t);
        }
        out
    }

    /// Marks for slots `0..n`, set on `on`.
    fn marks(n: usize, on: &[usize]) -> Vec<bool> {
        (0..n).map(|s| on.contains(&s)).collect()
    }

    #[test]
    fn rejoining_path_is_marked() {
        // entry 0 -> 1 -> 3 (all frequent), 0 -> 2 -> 3 (2 infrequent).
        // Block 2 exits a marked block and rejoins 3, so it is marked.
        let e = succs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = mark_rejoining_paths(&e, marks(4, &[0, 1, 3]));
        assert_eq!(r.marked, vec![true; 4]);
    }

    #[test]
    fn dead_end_side_path_is_not_marked() {
        // 0 -> 1 (frequent); 0 -> 2 -> 3, never rejoining.
        let e = succs(4, &[(0, 1), (0, 2), (2, 3)]);
        let r = mark_rejoining_paths(&e, marks(4, &[0, 1]));
        assert_eq!(r.marked, marks(4, &[0, 1]));
    }

    #[test]
    fn chain_of_infrequent_blocks_marks_in_one_iteration() {
        // 0 -> 1 -> 2 -> 3 -> 4(frequent): post-order visits 3 before 2
        // before 1, so the whole chain marks in a single pass.
        let e = succs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = mark_rejoining_paths(&e, marks(5, &[0, 4]));
        assert_eq!(r.marked, vec![true; 5]);
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
        let e = succs(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let r = mark_rejoining_paths(&e, marks(4, &[0, 3]));
        assert!(r.marked[1] && r.marked[2]);
        assert!(r.iterations <= 3);
    }

    #[test]
    fn no_marks_beyond_fixpoint() {
        // Nothing new to mark: single frequent entry, one dead-end succ.
        let e = succs(2, &[(0, 1)]);
        let r = mark_rejoining_paths(&e, marks(2, &[0]));
        assert_eq!(r.marked, marks(2, &[0]));
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn self_loop_terminates() {
        let e = succs(2, &[(0, 0), (0, 1)]);
        let r = mark_rejoining_paths(&e, marks(2, &[0]));
        assert_eq!(r.marked, marks(2, &[0]));
    }

    #[test]
    fn unreachable_slots_are_still_visited() {
        // Slot 2 is not reachable from the entry but rejoins it.
        let e = succs(3, &[(0, 1), (2, 0)]);
        let r = mark_rejoining_paths(&e, marks(3, &[0]));
        assert_eq!(r.marked, marks(3, &[0, 2]));
    }
}
