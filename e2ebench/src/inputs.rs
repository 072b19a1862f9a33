//! Inputs made from the run's seed with the public `tt_workloads`
//! generators, the variants the cache should recognise, and the answer
//! oracle: every optimum is computed in-process by the paper's
//! sequential backward induction before anything is timed.

use tt_core::instance::{TtInstance, TtInstanceBuilder};
use tt_core::solver::sequential;
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

/// The domains every workload draws from: uniform random instances and
/// two structured families, because no TT method dominates across
/// instance families.
pub const DOMAINS: [Domain; 3] = [Domain::Random, Domain::Medical, Domain::Faults];

/// splitmix64: a small, fixed generator, so inputs depend on the seed
/// and on nothing else.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A generated instance and the class it was drawn for.
#[derive(Clone, Debug)]
pub struct Item {
    /// `<domain>-k<k>`: the unit of equal counts.
    pub class: String,
    pub k: usize,
    pub inst: TtInstance,
    /// The instance in the repository's text format, as the program
    /// receives it.
    pub text: String,
}

impl Item {
    pub fn new(domain: Domain, k: usize, seed: u64) -> Item {
        let inst = domain.generate(k, seed);
        Item {
            class: format!("{domain}-k{k}"),
            k,
            text: tt_core::io::to_text(&inst),
            inst,
        }
    }
}

/// `per_class` instances of every (domain, k) class, in a seeded
/// shuffled order. The generator seed of each instance is drawn from
/// the run's seed, so one seed always gives the same sequence.
pub fn class_mix(seed: u64, ks: &[usize], per_class: usize) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    for &domain in &DOMAINS {
        for &k in ks {
            for _ in 0..per_class {
                items.push(Item::new(domain, k, rng.next_u64()));
            }
        }
    }
    rng.shuffle(&mut items);
    items
}

/// How a variant was derived from its base instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Objects renumbered by a permutation.
    Relabel,
    /// Every object weight multiplied by the factor.
    Rescale(u64),
    /// Actions listed in another order.
    Reorder,
}

impl Variant {
    /// The factor the optimum is multiplied by: expected costs are
    /// linear in the weights, and renumbering changes nothing.
    pub fn cost_factor(self) -> u64 {
        match self {
            Variant::Rescale(m) => m,
            Variant::Relabel | Variant::Reorder => 1,
        }
    }

    pub fn draw(rng: &mut Rng) -> Variant {
        match rng.below(3) {
            0 => Variant::Relabel,
            1 => Variant::Rescale(2 + rng.below(4) as u64),
            _ => Variant::Reorder,
        }
    }
}

/// Applies `v` to `inst`; `rng` draws the permutation.
pub fn apply(inst: &TtInstance, v: Variant, rng: &mut Rng) -> TtInstance {
    let k = inst.k();
    let mut objects: Vec<usize> = (0..k).collect();
    let mut order: Vec<usize> = (0..inst.n_actions()).collect();
    let mut weights: Vec<u64> = inst.weights().to_vec();
    match v {
        Variant::Relabel => rng.shuffle(&mut objects),
        Variant::Reorder => rng.shuffle(&mut order),
        Variant::Rescale(m) => weights.iter_mut().for_each(|w| *w *= m),
    }
    // Object j of `inst` becomes object objects[j] of the variant.
    let mut new_weights = vec![0; k];
    for (j, &w) in weights.iter().enumerate() {
        new_weights[objects[j]] = w;
    }
    let map = |s: Subset| Subset::from_iter(s.iter().map(|j| objects[j]));
    let mut b = TtInstanceBuilder::new(k).weights(new_weights);
    for &i in &order {
        let a = inst.action(i);
        b = if a.is_test() {
            b.test(map(a.set), a.cost)
        } else {
            b.treatment(map(a.set), a.cost)
        };
    }
    b.build()
        .expect("a relabelled, rescaled or reordered instance stays valid")
}

/// The reference optimum: `C(U)` by sequential backward induction.
/// Generated instances are adequate, so it is finite.
pub fn optimum(inst: &TtInstance) -> u64 {
    let tables = sequential::solve_tables(inst);
    let c = tables.cost[inst.universe().index()];
    assert!(c.is_finite(), "generated instances are adequate");
    c.0
}

/// [`optimum`] of every item, on `threads` threads (this happens before
/// the timed phase, so it may use the whole machine).
pub fn optima(items: &[&TtInstance], threads: usize) -> Vec<u64> {
    let threads = threads.max(1);
    let mut out = vec![0; items.len()];
    std::thread::scope(|s| {
        let chunks: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, optimum(items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for c in chunks {
            for (i, v) in c.join().expect("oracle thread panicked") {
                out[i] = v;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = class_mix(7, &[6, 9], 2);
        let b = class_mix(7, &[6, 9], 2);
        let c = class_mix(8, &[6, 9], 2);
        let text = |v: &[Item]| {
            v.iter()
                .map(|i| i.text.clone())
                .collect::<Vec<_>>()
                .concat()
        };
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_eq!(a.len(), 3 * 2 * 2);
        let classes: Vec<_> = a.iter().map(|i| i.class.clone()).collect();
        for d in DOMAINS {
            for k in [6, 9] {
                let name = format!("{d}-k{k}");
                assert_eq!(classes.iter().filter(|c| **c == name).count(), 2);
            }
        }
    }

    #[test]
    fn variant_oracle_scales_the_cost_exactly() {
        let mut rng = Rng::new(3);
        for domain in DOMAINS {
            for seed in 0..4 {
                let base = domain.generate(7, seed);
                let reference = optimum(&base);
                for v in [
                    Variant::Relabel,
                    Variant::Reorder,
                    Variant::Rescale(3),
                    Variant::draw(&mut rng),
                ] {
                    let variant = apply(&base, v, &mut rng);
                    assert_eq!(
                        optimum(&variant),
                        reference * v.cost_factor(),
                        "{domain} {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_oracle_matches_sequential() {
        let items = class_mix(1, &[5, 6], 2);
        let refs: Vec<&TtInstance> = items.iter().map(|i| &i.inst).collect();
        let one: Vec<u64> = refs.iter().map(|i| optimum(i)).collect();
        assert_eq!(optima(&refs, 2), one);
    }
}
