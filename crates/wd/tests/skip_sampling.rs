//! Statistical checks of the skip-sampled disturbance draws.
//!
//! `WdInjector` no longer rolls one trial per vulnerable cell: it draws
//! geometric gaps to the next victim. These tests check, through the
//! public draw API only, that the victims still follow the per-cell
//! model: each cell flips with its own probability (`p` for one RESET
//! neighbour, `1 − (1 − p)²` for two), cells flip independently of each
//! other, and the number of victims in a mask of `n` cells is
//! Binomial(`n`, `p`).
//!
//! Masks hold 1, 7, 64, 200 and 512 cells where the direction allows
//! it: a bit-line mask can cover the whole line, while word-line masks
//! top out at 341 one-neighbour cells (`R V V` repeated) and 255
//! two-neighbour cells (`R V R V …`), so those sizes are capped there.
//! A mixed word-line mask of pseudorandom content covers the merge of
//! the two parts.
//!
//! Marginal rates are checked at the first two, middle and last two
//! cells of each mask and over the whole mask, joint rates at three
//! pairs (neighbours in mask order, the two ends, the middle two).
//! Every bound is a 4σ interval around the model's value, and every
//! victim-count distribution meets a chi-square test at α = 1e-3. The
//! fast subset runs with the other tests; the full grid is a release
//! soak (`cargo test --release -p sdpcm-wd -- --ignored`).

use sdpcm_engine::SimRng;
use sdpcm_pcm::line::{DiffMask, LineBuf, LINE_BITS, LINE_WORDS};
use sdpcm_wd::pattern::wordline_exposure_masks;
use sdpcm_wd::WdInjector;

/// Which draw a case exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Bit-line victims in the row above.
    Bitline,
    /// Word-line cells with one RESET neighbour.
    WordOnce,
    /// Word-line cells between two RESET cells.
    WordTwice,
    /// Word-line cells of both kinds, from pseudorandom content.
    WordMixed,
}

/// One write and its vulnerable cells, each with its flip probability.
struct Case {
    kind: Kind,
    after: LineBuf,
    diff: DiffMask,
    neighbor: LineBuf,
    /// The vulnerable cells in ascending order.
    cells: Vec<u16>,
    /// The model probability of each cell of `cells`.
    probs: Vec<f64>,
}

fn bits(list: impl IntoIterator<Item = usize>) -> LineBuf {
    let mut line = LineBuf::zeroed();
    for b in list {
        line.set_bit(b, true);
    }
    line
}

fn pseudorandom(seed: u64) -> LineBuf {
    let mut words = [0u64; LINE_WORDS];
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for w in &mut words {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    LineBuf::from_words(words)
}

/// The case of `kind` with `n` vulnerable cells (ignored for
/// [`Kind::WordMixed`]) under the injector's effective probabilities.
fn case(kind: Kind, n: usize, inj: &WdInjector) -> Case {
    let (p_wl, p_bl) = (inj.p_wordline(), inj.p_bitline());
    let p_twice = 1.0 - (1.0 - p_wl) * (1.0 - p_wl);
    let (old, new) = match kind {
        // RESETs spread evenly over the line, crossing word seams.
        Kind::Bitline => (bits((0..n).map(|i| i * LINE_BITS / n)), LineBuf::zeroed()),
        // `R V V` groups closed by one more RESET, whose right neighbour
        // is the last victim for an odd count and stores an immune `1`
        // for an even one.
        Kind::WordOnce => {
            let groups = n / 2 + 1;
            let resets: Vec<usize> = (0..groups).map(|g| 3 * g).collect();
            let ones = bits(n.is_multiple_of(2).then(|| 3 * groups - 2));
            (bits(resets).xor(&ones), ones)
        }
        // RESETs at 0, 2, …, 2n and victims between them; the cell past
        // the last RESET stores `1`.
        Kind::WordTwice => {
            let ones = bits((2 * n + 1 < LINE_BITS).then_some(2 * n + 1));
            (bits((0..=n).map(|g| 2 * g)).xor(&ones), ones)
        }
        Kind::WordMixed => (pseudorandom(n as u64), pseudorandom(n as u64 + 1000)),
    };
    let diff = DiffMask::between(&old, &new);
    let neighbor = LineBuf::zeroed();
    let (cells, probs): (Vec<u16>, Vec<f64>) = if kind == Kind::Bitline {
        diff.reset_mask()
            .iter_ones()
            .map(|b| (b as u16, p_bl))
            .unzip()
    } else {
        let (once, twice) = wordline_exposure_masks(&new, &diff);
        (0..LINE_BITS)
            .filter_map(|b| {
                let p = if once.bit(b) {
                    p_wl
                } else if twice.bit(b) {
                    p_twice
                } else {
                    return None;
                };
                Some((b as u16, p))
            })
            .unzip()
    };
    if kind != Kind::WordMixed {
        assert_eq!(cells.len(), n, "{kind:?} mask of {n} cells");
    }
    Case {
        kind,
        after: new,
        diff,
        neighbor,
        cells,
        probs,
    }
}

fn draw(inj: &WdInjector, c: &Case, epoch: u64, out: &mut Vec<u16>) {
    let ev = inj.event(0x5eed, epoch);
    match c.kind {
        Kind::Bitline => inj.draw_bitline_into(&ev, 0, &c.diff, &c.neighbor, out),
        _ => inj.draw_wordline_into(&ev, &c.after, &c.diff, out),
    }
}

/// Whether `hits` successes in `trials` trials lie within four standard
/// errors of a rate `p`.
fn within_4_sigma(hits: u64, trials: u64, p: f64) -> bool {
    let sigma = (p * (1.0 - p) / trials as f64).sqrt();
    (hits as f64 / trials as f64 - p).abs() <= 4.0 * sigma
}

/// `ln k!` for `k = 0..=n`.
fn ln_factorials(n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n + 1];
    for k in 1..=n {
        out[k] = out[k - 1] + (k as f64).ln();
    }
    out
}

/// Pearson's statistic of the observed victim counts against
/// Binomial(`n`, `p`) over `trials`, with tail bins merged until each
/// expects at least five, and its degrees of freedom.
fn chi_square_binomial(counts: &[u64], n: usize, p: f64, trials: u64) -> (f64, usize) {
    let lf = ln_factorials(n);
    let expected: Vec<f64> = (0..=n)
        .map(|k| {
            let ln =
                lf[n] - lf[k] - lf[n - k] + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
            ln.exp() * trials as f64
        })
        .collect();
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let (mut e, mut o) = (0.0, 0.0);
    for k in 0..=n {
        e += expected[k];
        o += counts[k] as f64;
        if e >= 5.0 {
            bins.push((e, o));
            (e, o) = (0.0, 0.0);
        }
    }
    // The tail left over joins the last bin.
    match bins.last_mut() {
        Some(last) => {
            last.0 += e;
            last.1 += o;
        }
        None => bins.push((e, o)),
    }
    let stat = bins.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
    (stat, bins.len().saturating_sub(1))
}

/// The upper α = 1e-3 point of chi-square with `df` degrees of freedom
/// (Wilson–Hilferty; slightly above the exact value for small `df`).
fn chi_square_critical(df: usize) -> f64 {
    let df = df as f64;
    let z = 3.0902; // upper 1e-3 point of the standard normal
    let h = 2.0 / (9.0 * df);
    df * (1.0 - h + z * h.sqrt()).powi(3)
}

/// Draws `trials` events for one case and checks every property named
/// in the module docs.
fn check(inj: &WdInjector, c: &Case, trials: u64) {
    let n = c.cells.len();
    let label = format!(
        "{:?}, {n} cells, p_wl {}, p_bl {}",
        c.kind,
        inj.p_wordline(),
        inj.p_bitline()
    );
    let mut hits = vec![0u64; n];
    let mut counts = vec![0u64; n + 1];
    let probes: Vec<usize> = {
        let mut v = vec![0, 1, n / 2, n.saturating_sub(2), n.saturating_sub(1)];
        v.retain(|&i| i < n);
        v.dedup();
        v
    };
    let pairs: Vec<(usize, usize)> = if n >= 2 {
        vec![(0, 1), (0, n - 1), (n / 2 - 1, n / 2)]
    } else {
        Vec::new()
    };
    let mut joint = vec![0u64; pairs.len()];
    let mut out = Vec::new();
    let mut hit_now = vec![false; n];
    for t in 0..trials {
        draw(inj, c, t, &mut out);
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "{label}: victims ascending and unique: {out:?}"
        );
        hit_now.iter_mut().for_each(|h| *h = false);
        for v in &out {
            let i = c
                .cells
                .binary_search(v)
                .unwrap_or_else(|_| panic!("{label}: victim {v} outside the mask"));
            hits[i] += 1;
            hit_now[i] = true;
        }
        counts[out.len()] += 1;
        for (j, &(a, b)) in pairs.iter().enumerate() {
            joint[j] += u64::from(hit_now[a] && hit_now[b]);
        }
    }
    for &i in &probes {
        assert!(
            within_4_sigma(hits[i], trials, c.probs[i]),
            "{label}: cell {} flipped {} of {trials} times, model rate {}",
            c.cells[i],
            hits[i],
            c.probs[i]
        );
    }
    let total: u64 = hits.iter().sum();
    let mean = c.probs.iter().sum::<f64>() / n as f64;
    let var: f64 = c.probs.iter().map(|p| p * (1.0 - p)).sum::<f64>() * trials as f64;
    assert!(
        (total as f64 - mean * (n as u64 * trials) as f64).abs() <= 4.0 * var.sqrt(),
        "{label}: {total} victims over {trials} events, model mean rate {mean}"
    );
    for (j, &(a, b)) in pairs.iter().enumerate() {
        let p = c.probs[a] * c.probs[b];
        assert!(
            within_4_sigma(joint[j], trials, p),
            "{label}: cells {} and {} flipped together {} of {trials} times, model {p}",
            c.cells[a],
            c.cells[b],
            joint[j]
        );
    }
    if c.kind != Kind::WordMixed {
        let (stat, df) = chi_square_binomial(&counts, n, c.probs[0], trials);
        if df > 0 {
            assert!(
                stat <= chi_square_critical(df),
                "{label}: victim counts fail chi-square ({stat:.1} on {df} df): {counts:?}"
            );
        }
    }
}

fn injector(p: f64, storm: f64) -> WdInjector {
    let mut inj = WdInjector::with_probs(p, p, SimRng::from_seed_label(2011, "skip-sampling"))
        .expect("test probabilities are valid");
    inj.set_storm(storm).expect("finite storm");
    inj
}

/// Mask sizes of each kind: the module's five, capped where the
/// direction cannot hold more.
fn sizes(kind: Kind) -> Vec<usize> {
    let cap = match kind {
        Kind::Bitline => LINE_BITS,
        Kind::WordOnce => 341,
        Kind::WordTwice => 255,
        Kind::WordMixed => return vec![1, 2, 3],
    };
    [1, 7, 64, 200, 512].iter().map(|&n| n.min(cap)).collect()
}

const KINDS: [Kind; 4] = [
    Kind::Bitline,
    Kind::WordOnce,
    Kind::WordTwice,
    Kind::WordMixed,
];

/// Probabilities of the grid, and storms on the calibrated rates.
const PROBS: [(f64, f64); 8] = [
    (0.01, 1.0),
    (0.099, 1.0),
    (0.115, 1.0),
    (0.5, 1.0),
    (0.9, 1.0),
    (0.099, 1.5),
    (0.115, 2.0),
    (0.115, 4.0),
];

fn grid(probs: &[(f64, f64)], sizes_of: impl Fn(Kind) -> Vec<usize>, trials: u64) {
    for &(p, storm) in probs {
        let inj = injector(p, storm);
        for kind in KINDS {
            for n in sizes_of(kind) {
                check(&inj, &case(kind, n, &inj), trials);
            }
        }
    }
}

#[test]
fn victims_follow_the_per_cell_model() {
    grid(
        &[(0.099, 1.0), (0.115, 2.0), (0.5, 1.0)],
        |kind| match kind {
            Kind::Bitline => vec![1, 64, 512],
            Kind::WordMixed => vec![1],
            _ => vec![7, 200],
        },
        4_000,
    );
}

#[test]
#[ignore = "release soak; run with --ignored"]
fn victims_follow_the_per_cell_model_soak() {
    grid(&PROBS, sizes, 100_000);
}

#[test]
fn sentinels_flip_nothing_or_everything() {
    for kind in KINDS {
        for n in sizes(kind) {
            // p = 0, and a calm rate silenced by a zero storm.
            for inj in [injector(0.0, 1.0), injector(0.115, 0.0)] {
                let c = case(kind, n, &inj);
                let mut out = vec![7];
                draw(&inj, &c, 0, &mut out);
                assert!(out.is_empty(), "{kind:?}, {n} cells");
            }
            // p = 1, and a storm clamped to 1.
            for inj in [injector(1.0, 1.0), injector(0.115, 100.0)] {
                let c = case(kind, n, &inj);
                let mut out = Vec::new();
                for epoch in 0..4 {
                    draw(&inj, &c, epoch, &mut out);
                    assert_eq!(out, c.cells, "{kind:?}, {n} cells");
                }
            }
        }
    }
}
