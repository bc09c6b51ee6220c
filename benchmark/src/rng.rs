//! The benchmark's only source of randomness: a seeded SplitMix64. The
//! same `--seed` gives the same operation order and chunk sizes; the
//! product never sees the seed, only the inputs generated from it.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A child stream; `self` moves on, so the next split differs.
    pub fn split(&mut self) -> Rng {
        Rng(self.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `0..n` in shuffled order.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let a = Rng::new(7).order(60);
        assert_eq!(a, Rng::new(7).order(60));
        assert_ne!(a, Rng::new(8).order(60));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
        let mut parent = Rng::new(7);
        assert_ne!(parent.split().next_u64(), parent.split().next_u64());
    }
}
