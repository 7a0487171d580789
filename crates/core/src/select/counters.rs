//! Profiling counters with recycling and peak tracking.

use crate::sim::faults::CounterFault;

/// The table of execution counters used by NET and LEI profiling.
///
/// Both algorithms associate a counter with a small subset of taken
/// branch targets and recycle the counter once its threshold is reached
/// (paper §3.2.4). The *maximum number of counters in use at any point*
/// is the profiling-memory metric of Figure 10, so the table tracks its
/// peak occupancy.
///
/// Counters are keyed by program block index in a dense table sized
/// to the program, so a profiled event costs an index instead of an
/// address hash. A live counter is at least 1, so 0 marks a block
/// without one; a live count keeps [`CounterTable::in_use`] and the
/// peak exact.
#[derive(Clone, Debug, Default)]
pub struct CounterTable {
    counts: Vec<u32>,
    live: usize,
    peak: usize,
}

impl CounterTable {
    /// Creates an empty table for a program of `block_count` blocks.
    pub fn new(block_count: usize) -> Self {
        CounterTable {
            counts: vec![0; block_count],
            live: 0,
            peak: 0,
        }
    }

    /// Increments the counter for `block` (creating it at 1) and
    /// returns the new value. Increments saturate at `u32::MAX` so a
    /// counter corrupted to the ceiling never wraps back below its
    /// threshold.
    pub fn increment(&mut self, block: usize) -> u32 {
        let c = &mut self.counts[block];
        if *c == 0 {
            // Only a new counter can raise the occupancy peak.
            self.live += 1;
            self.peak = self.peak.max(self.live);
        }
        *c = c.saturating_add(1);
        *c
    }

    /// Applies a profiling-counter fault. Saturation forces every live
    /// counter to `u32::MAX`, so every profiled target looks scorching
    /// hot at once. A reset drops every live counter, so accumulation
    /// starts over; the peak high-water mark survives.
    pub fn apply_fault(&mut self, fault: CounterFault) {
        match fault {
            CounterFault::Saturate => self
                .counts
                .iter_mut()
                .filter(|c| **c != 0)
                .for_each(|c| *c = u32::MAX),
            CounterFault::Reset => {
                self.counts.fill(0);
                self.live = 0;
            }
        }
    }

    /// Current value of the counter for `block`, if present.
    #[cfg(test)]
    fn get(&self, block: usize) -> Option<u32> {
        Some(self.counts[block]).filter(|&c| c != 0)
    }

    /// Recycles (removes) the counter for `block`, returning its final
    /// value if it existed.
    pub fn recycle(&mut self, block: usize) -> Option<u32> {
        let c = std::mem::take(&mut self.counts[block]);
        if c == 0 {
            return None;
        }
        self.live -= 1;
        Some(c)
    }

    /// Counters currently in use.
    pub fn in_use(&self) -> usize {
        self.live
    }

    /// Maximum counters in use at any point (Figure 10's metric).
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_accumulate() {
        let mut t = CounterTable::new(64);
        let a = 16;
        assert_eq!(t.increment(a), 1);
        assert_eq!(t.increment(a), 2);
        assert_eq!(t.get(a), Some(2));
        assert_eq!(t.get(32), None);
    }

    #[test]
    fn recycle_frees_slot_but_peak_persists() {
        let mut t = CounterTable::new(64);
        t.increment(1);
        t.increment(2);
        t.increment(3);
        assert_eq!(t.in_use(), 3);
        assert_eq!(t.peak(), 3);
        assert_eq!(t.recycle(2), Some(1));
        assert_eq!(t.in_use(), 2);
        assert_eq!(t.peak(), 3, "peak is a high-water mark");
        assert_eq!(t.recycle(2), None);
    }

    #[test]
    fn increment_saturates_at_max() {
        let mut t = CounterTable::new(64);
        let a = 9;
        t.increment(a);
        t.apply_fault(CounterFault::Saturate);
        assert_eq!(t.get(a), Some(u32::MAX));
        assert_eq!(t.increment(a), u32::MAX, "no wraparound");
    }

    #[test]
    fn reset_drops_counters_but_keeps_peak() {
        let mut t = CounterTable::new(64);
        t.increment(1);
        t.increment(2);
        t.apply_fault(CounterFault::Reset);
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 2);
        assert_eq!(t.increment(1), 1, "profiling starts over");
    }

    #[test]
    fn peak_counts_a_recreated_counter_once() {
        let mut t = CounterTable::new(64);
        let a = 7;
        t.increment(a);
        t.increment(a);
        t.recycle(a);
        t.increment(a);
        t.increment(8);
        assert_eq!(t.peak(), 2);
    }

    /// Drives random increments, recycles, saturations and resets
    /// against a plain map and compares every counter, the live count
    /// and the peak after each operation.
    #[test]
    fn matches_a_map_model() {
        use std::collections::BTreeMap;
        const KEYS: u64 = 16;
        // SplitMix64, seeded per run.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _run in 0..64 {
            let mut t = CounterTable::new(64);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut peak = 0;
            for _ in 0..400 {
                let key = next() % KEYS;
                let a = key as usize;
                match next() % 100 {
                    0..=59 => {
                        let c = model.entry(key).or_insert(0);
                        *c = c.saturating_add(1);
                        let want = *c;
                        peak = peak.max(model.len());
                        assert_eq!(t.increment(a), want);
                    }
                    60..=94 => assert_eq!(t.recycle(a), model.remove(&key)),
                    95..=97 => {
                        t.apply_fault(CounterFault::Saturate);
                        model.values_mut().for_each(|c| *c = u32::MAX);
                    }
                    _ => {
                        t.apply_fault(CounterFault::Reset);
                        model.clear();
                    }
                }
                for k in 0..KEYS {
                    assert_eq!(t.get(k as usize), model.get(&k).copied(), "key {k}");
                }
                assert_eq!(t.in_use(), model.len());
                assert_eq!(t.peak(), peak);
            }
        }
    }

    #[test]
    fn recycled_counter_restarts_at_one() {
        let mut t = CounterTable::new(64);
        let a = 7;
        t.increment(a);
        t.increment(a);
        t.recycle(a);
        assert_eq!(t.increment(a), 1);
    }
}
