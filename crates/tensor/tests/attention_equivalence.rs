//! The serving evaluator's attention over a packed batch must equal the
//! tape's per-head composition (slice the head's columns, `QKᵀ`, scale,
//! softmax, `·V`, concatenate the heads), run one sequence per tape, bit
//! for bit. Shapes cover one and several heads, length-1 sequences, and
//! sequences long enough that the tape's products take the packed, blocked
//! and pool-parallel kernel paths; every case runs at 1 and 4 pool threads.

use gs_obs::Rng;
use gs_tensor::{Evaluator, ParamStore, Tape, TapeOps, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn random(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::from_vec(
        vec![rows, cols],
        (0..rows * cols).map(|_| rng.random_range(-2.0..2.0)).collect(),
    )
}

/// Evaluator attention over the packed rows.
fn packed(q: &Tensor, k: &Tensor, v: &Tensor, seqs: &[(usize, usize)], heads: usize) -> Vec<u32> {
    let scale = 1.0 / ((q.cols() / heads) as f32).sqrt();
    let mut store = ParamStore::new();
    let ids = [("q", q), ("k", k), ("v", v)].map(|(name, t)| store.register(name, t.clone()));
    let eval = Evaluator::new(&store);
    let [q, k, v] = ids.map(|id| eval.param(&store, id));
    let out = eval.attention(q, k, v, seqs, heads, scale);
    let out = eval.value(out);
    bits(&out)
}

/// The tape's attention, one sequence per tape, rows in packing order.
fn taped(q: &Tensor, k: &Tensor, v: &Tensor, seqs: &[(usize, usize)], heads: usize) -> Vec<u32> {
    let scale = 1.0 / ((q.cols() / heads) as f32).sqrt();
    seqs.iter()
        .flat_map(|&(start, len)| {
            let tape = Tape::new();
            let [qs, ks, vs] = [q, k, v].map(|t| tape.leaf(t.slice_rows(start, start + len)));
            let out = tape.attention(qs, ks, vs, &[(0, len)], heads, scale);
            bits(&tape.value(out))
        })
        .collect()
}

fn cases() -> Vec<(usize, usize, Vec<usize>)> {
    // (width, heads, sequence lengths)
    let mut out = vec![
        (4, 1, vec![1]),
        (8, 2, vec![1, 1, 1]),
        (32, 2, vec![22, 1, 15, 48]),
        (16, 4, vec![3, 5]),
        (64, 4, vec![48, 48, 7]),
        (96, 2, vec![70, 2, 33]),
    ];
    let mut rng = Rng::seed_from_u64(73);
    for _ in 0..16 {
        let heads = rng.random_range(1..5usize);
        let width = heads * rng.random_range(1..25usize);
        let lens = (0..rng.random_range(1..6)).map(|_| rng.random_range(1..60usize)).collect();
        out.push((width, heads, lens));
    }
    out
}

#[test]
fn packed_attention_equals_the_per_head_tape_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(5);
    for (case, (width, heads, lens)) in cases().into_iter().enumerate() {
        let rows: usize = lens.iter().sum();
        let seqs: Vec<(usize, usize)> = lens
            .iter()
            .scan(0, |start, &len| {
                let seq = (*start, len);
                *start += len;
                Some(seq)
            })
            .collect();
        let [q, k, v] = [0; 3].map(|_| random(rows, width, &mut rng));
        let want = gs_par::with_threads(1, || taped(&q, &k, &v, &seqs, heads));
        for threads in [1, 4] {
            gs_par::with_threads(threads, || {
                assert_eq!(
                    taped(&q, &k, &v, &seqs, heads),
                    want,
                    "case {case}: tape at {threads} threads"
                );
                assert_eq!(
                    packed(&q, &k, &v, &seqs, heads),
                    want,
                    "case {case}: width {width}, {heads} heads, lengths {lens:?}, {threads} threads"
                );
            });
        }
    }
}
