//! Seeded properties of the analysis data structures: `BitSet` against a
//! `HashSet` model and `UnionFind` against a naive partition model. Every
//! case comes from the in-repo splitmix64 generator, so a failure names the
//! seed that replays it.

use std::collections::HashSet;

use tls_analysis::{BitSet, UnionFind};
use tls_ir::SplitMix64;

/// Seeded cases per property.
const CASES: u64 = 24;

#[derive(Clone, Copy, Debug)]
enum SetOp {
    Insert(u8),
    Remove(u8),
    Query(u8),
}

/// Up to `max - 1` elements below `bound` (duplicates collapse).
fn random_set(rng: &mut SplitMix64, bound: usize, max: i64) -> HashSet<usize> {
    let len = rng.gen_range(0, max);
    (0..len).map(|_| rng.pick(bound)).collect()
}

fn sorted(s: HashSet<usize>) -> Vec<usize> {
    let mut v: Vec<usize> = s.into_iter().collect();
    v.sort_unstable();
    v
}

/// BitSet behaves exactly like HashSet<usize> under random operations.
#[test]
fn bitset_matches_hashset_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let len = rng.gen_range(0, 200);
        let ops: Vec<SetOp> = (0..len)
            .map(|_| {
                let x = rng.next_u64() as u8;
                match rng.pick(3) {
                    0 => SetOp::Insert(x),
                    1 => SetOp::Remove(x),
                    _ => SetOp::Query(x),
                }
            })
            .collect();
        let mut bs = BitSet::new(256);
        let mut model: HashSet<usize> = HashSet::new();
        for (n, op) in ops.iter().enumerate() {
            let at = format!("seed {seed}, op {n} {op:?}");
            match *op {
                SetOp::Insert(x) => {
                    assert_eq!(bs.insert(x as usize), model.insert(x as usize), "{at}");
                }
                SetOp::Remove(x) => {
                    assert_eq!(bs.remove(x as usize), model.remove(&(x as usize)), "{at}");
                }
                SetOp::Query(x) => {
                    assert_eq!(
                        bs.contains(x as usize),
                        model.contains(&(x as usize)),
                        "{at}"
                    );
                }
            }
            assert_eq!(bs.count(), model.len(), "{at}: count");
        }
        assert_eq!(
            bs.iter().collect::<Vec<usize>>(),
            sorted(model),
            "seed {seed}: members"
        );
    }
}

/// Set algebra agrees with the HashSet model.
#[test]
fn bitset_algebra_matches_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let a = random_set(&mut rng, 128, 64);
        let b = random_set(&mut rng, 128, 64);
        let at = format!(
            "seed {seed} ({:?} vs {:?})",
            sorted(a.clone()),
            sorted(b.clone())
        );
        let mk = |s: &HashSet<usize>| {
            let mut bs = BitSet::new(128);
            for &x in s {
                bs.insert(x);
            }
            bs
        };
        let (ba, bb) = (mk(&a), mk(&b));
        let mut u = ba.clone();
        u.union_with(&bb);
        let mut i = ba.clone();
        i.intersect_with(&bb);
        let mut d = ba.clone();
        d.subtract(&bb);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            sorted(a.union(&b).copied().collect()),
            "{at}: union"
        );
        assert_eq!(
            i.iter().collect::<Vec<_>>(),
            sorted(a.intersection(&b).copied().collect()),
            "{at}: intersection"
        );
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            sorted(a.difference(&b).copied().collect()),
            "{at}: difference"
        );
    }
}

/// UnionFind's equivalence classes match a naive model that relabels
/// exhaustively on every union.
#[test]
fn unionfind_matches_naive_partition() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(1, 64) as usize;
        let len = rng.gen_range(0, 100);
        let unions: Vec<(usize, usize)> = (0..len).map(|_| (rng.pick(n), rng.pick(n))).collect();
        let at = format!("seed {seed} (n = {n}, unions {unions:?})");
        let mut uf = UnionFind::new(n);
        let mut label: Vec<usize> = (0..n).collect();
        for &(a, b) in &unions {
            uf.union(a, b);
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in &mut label {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for x in 0..n {
            for y in 0..n {
                assert_eq!(uf.same(x, y), label[x] == label[y], "{at}: {x} vs {y}");
            }
        }
        let classes: HashSet<usize> = label.iter().copied().collect();
        assert_eq!(uf.component_count(), classes.len(), "{at}: class count");
        // groups() partitions 0..n.
        let total: usize = uf.groups().iter().map(Vec::len).sum();
        assert_eq!(total, n, "{at}: groups cover every element once");
    }
}
