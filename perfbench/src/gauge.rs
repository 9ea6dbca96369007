//! The host-speed gauge: a fixed reference computation, timed between
//! pieces of the benchmark's work, that tells how fast the host runs at
//! that moment.
//!
//! The reference host, a 2-core Xeon virtual machine on a shared
//! server, changes speed by up to 2x between states that last from
//! seconds to minutes, with steal time and run-queue wait near zero: the
//! physical cores are shared with other tenants. The same unit of work
//! took 0.76-1.51 s within seven minutes of one run there. No run length
//! averages that away, so the timings are reported at the reference
//! host's speed: each raw time is divided by the host's slowness while it
//! was taken, raised to the workload's sensitivity (see [`adjust`]).
//!
//! The gauge is the benchmark's own code and never calls the program, so
//! a change to the program cannot move it. Its three kernels are the
//! kinds of work the slow states slow most: allocating and filling short
//! vectors, a dense matrix product held in L1, and sorting. The slowness
//! of one sample is the geometric mean of the kernels' times over their
//! [`REFERENCE_S`].

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Least time between two samples taken by [`tick`].
const INTERVAL_S: f64 = 0.1;

/// Each kernel's time on the reference host (2-core Xeon virtual
/// machine) in its fast state: allocation, matrix product, sort. One
/// sample takes about 1 ms there.
const REFERENCE_S: [f64; 3] = [3.3e-4, 3.4e-4, 2.8e-4];

fn alloc_fill() -> usize {
    let mut total = 0;
    for i in 0..4000 {
        let v = vec![i as f64; 64 + (i * 37) % 512];
        total += black_box(&v).len();
    }
    total
}

fn matmul() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
    let b = a.clone();
    let mut c = vec![0.0; N * N];
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    c[5]
}

fn sort() -> f64 {
    let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<f64> = (0..8000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[17]
}

/// Geometric mean of `times[k] / REFERENCE_S[k]`: 1 on the reference
/// host in its fast state, above 1 on a slower host or state.
pub fn slowness(times: [f64; 3]) -> f64 {
    let log_sum: f64 = times.iter().zip(REFERENCE_S).map(|(t, r)| (t / r).ln()).sum();
    (log_sum / times.len() as f64).exp()
}

/// `raw` at the reference host's speed: `raw / slowness^beta`. `beta`
/// is how strongly the timed code follows the gauge, measured per
/// workload (`Kind::gauge_beta`): 1 when it slows as much as the gauge.
pub fn adjust(raw: f64, slowness: f64, beta: f64) -> f64 {
    raw / slowness.powf(beta)
}

/// The calling thread's sampler, present once [`enable`] has run.
struct Sampler {
    last: Instant,
    samples: Vec<f64>,
    spent: f64,
}

thread_local! {
    static SAMPLER: RefCell<Option<Sampler>> = const { RefCell::new(None) };
}

/// Turns sampling on for the calling thread. Other threads, and every
/// thread of a traced run, never sample.
pub fn enable() {
    SAMPLER.with(|s| {
        *s.borrow_mut() = Some(Sampler { last: Instant::now(), samples: Vec::new(), spent: 0.0 })
    });
}

impl Sampler {
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut times = [0.0; 3];
        let mut t = t0;
        black_box(alloc_fill());
        times[0] = t.elapsed().as_secs_f64();
        t = Instant::now();
        black_box(matmul());
        times[1] = t.elapsed().as_secs_f64();
        t = Instant::now();
        black_box(sort());
        times[2] = t.elapsed().as_secs_f64();
        self.spent += t0.elapsed().as_secs_f64();
        self.last = Instant::now();
        slowness(times)
    }
}

/// Takes and keeps a sample if sampling is on and [`INTERVAL_S`] has
/// passed since the last one. Called after every evaluation and every
/// importance ranking.
pub fn tick() {
    SAMPLER.with(|s| {
        if let Some(s) = s.borrow_mut().as_mut() {
            if s.last.elapsed().as_secs_f64() >= INTERVAL_S {
                let v = s.sample();
                s.samples.push(v);
            }
        }
    });
}

/// Takes and keeps a sample now; returns it (NaN when sampling is off).
pub fn mark() -> f64 {
    SAMPLER.with(|s| match s.borrow_mut().as_mut() {
        Some(s) => {
            let v = s.sample();
            s.samples.push(v);
            v
        }
        None => f64::NAN,
    })
}

/// The samples kept since the last call, and the seconds spent taking
/// them.
pub fn take() -> (Vec<f64>, f64) {
    SAMPLER.with(|s| match s.borrow_mut().as_mut() {
        Some(s) => (std::mem::take(&mut s.samples), std::mem::replace(&mut s.spent, 0.0)),
        None => (Vec::new(), 0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_times_are_slowness_one() {
        assert!((slowness(REFERENCE_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowness_is_the_geometric_mean_of_the_ratios() {
        let r = REFERENCE_S;
        let times = [2.0 * r[0], 0.5 * r[1], 8.0 * r[2]];
        assert!((slowness(times) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adjust_divides_by_slowness_to_the_beta() {
        assert_eq!(adjust(3.0, 1.5, 0.0), 3.0);
        assert!((adjust(3.0, 1.5, 1.0) - 2.0).abs() < 1e-12);
        assert!((adjust(4.0, 4.0, 0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_per_thread_and_drained_by_take() {
        assert!(mark().is_nan());
        enable();
        let v = mark();
        assert!(v.is_finite() && v > 0.0);
        let (samples, spent) = take();
        assert_eq!(samples, vec![v]);
        assert!(spent > 0.0);
        assert_eq!(take(), (Vec::new(), 0.0));
        std::thread::spawn(|| assert!(mark().is_nan())).join().unwrap();
    }
}
