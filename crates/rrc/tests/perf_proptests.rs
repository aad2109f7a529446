//! Differential property tests for `onoff_rrc::perf::InlineVec`: it must
//! behave exactly like `Vec` through every operation sequence, including
//! across the inline→heap spill boundary.

use onoff_rrc::perf::InlineVec;
use proptest::prelude::*;

/// One mutation step of the differential `InlineVec` ≡ `Vec` test.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    /// Index is taken modulo the current length.
    Remove(usize),
    /// Index is taken modulo the current length + 1.
    Insert(usize, u32),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Push),
        any::<u32>().prop_map(Op::Push),
        any::<u32>().prop_map(Op::Push),
        Just(Op::Pop),
        (any::<usize>(), any::<u32>()).prop_map(|(i, v)| Op::Insert(i, v)),
        any::<usize>().prop_map(Op::Remove),
        Just(Op::Clear),
    ]
}

proptest! {
    /// `InlineVec<_, 4>` stays element-for-element identical to `Vec`
    /// through arbitrary op sequences long enough to spill (N = 4, up to
    /// 24 ops) and back down through pops and clears.
    #[test]
    fn inline_vec_matches_vec(ops in prop::collection::vec(arb_op(), 0..24)) {
        let mut iv: InlineVec<u32, 4> = InlineVec::new();
        let mut v: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Push(x) => {
                    iv.push(x);
                    v.push(x);
                }
                Op::Pop => {
                    prop_assert_eq!(iv.pop(), v.pop());
                }
                Op::Remove(i) => {
                    if !v.is_empty() {
                        let i = i % v.len();
                        prop_assert_eq!(iv.remove(i), v.remove(i));
                    }
                }
                Op::Insert(i, x) => {
                    let i = i % (v.len() + 1);
                    iv.insert(i, x);
                    v.insert(i, x);
                }
                Op::Clear => {
                    iv.clear();
                    v.clear();
                }
            }
            prop_assert_eq!(iv.as_slice(), v.as_slice());
            prop_assert_eq!(iv.len(), v.len());
            // Iteration agrees in both directions of the comparison.
            prop_assert!(iv.iter().eq(v.iter()));
            prop_assert_eq!(&iv, &v);
        }
        // Round-trips through the owning conversions.
        prop_assert_eq!(iv.clone().into_vec(), v.clone());
        let back = InlineVec::<u32, 4>::from(v.clone());
        prop_assert_eq!(back.as_slice(), v.as_slice());
    }

    /// The spill boundary itself: exactly N, N+1, and 2N+1 pushes.
    #[test]
    fn inline_vec_spills_losslessly(extra in 0usize..9) {
        let n = 4 + extra;
        let mut iv: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..n {
            iv.push(i as u32);
        }
        prop_assert_eq!(iv.spilled(), n > 4);
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(iv.as_slice(), expect.as_slice());
    }
}
