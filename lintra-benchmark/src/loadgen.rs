//! Load generation: a seeded request stream, sent either open-loop (each
//! request when it is due) or closed-loop (each sender's next request
//! when its previous one is answered).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::adapter::{self, Client, Request, Response, Rng};
use crate::trace::Tracer;

/// What a correct answer to a planned request looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// An unfolding sweep: rows equal to the in-process reference.
    Sweep {
        /// Design name.
        design: &'static str,
        /// Deepest unfolding.
        max_i: u32,
    },
    /// An optimizer run: members equal to the in-process reference.
    Optimize {
        /// Design name.
        design: &'static str,
        /// `single` or `multi`.
        strategy: &'static str,
    },
    /// A retry of a settled key: byte-identical to the key's first
    /// answer (modulo the echoed correlation id). Index into the
    /// settled-key list.
    Retry(usize),
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// When it is due, from the start of its stage.
    pub due: Duration,
    /// The request.
    pub req: Request,
    /// How its answer is checked.
    pub check: Check,
}

/// A key settled before the workload starts: the sweep it answered.
#[derive(Debug, Clone)]
pub struct Settled {
    /// The idempotency key.
    pub key: String,
    /// Design swept.
    pub design: &'static str,
    /// Deepest unfolding.
    pub max_i: u32,
}

/// Deepest and shallowest unfolding a generated sweep asks for.
pub const SWEEP_MAX_I: (u32, u32) = (8, 32);

/// The seeded request stream. The mix: 60% keyed `sweep`, 30% `optimize
/// single`, 10% `optimize multi`, designs uniform; a `retry_share` of
/// requests instead retries a uniformly chosen settled key.
pub struct Generator {
    rng: Rng,
    designs: Vec<&'static str>,
    retry_share: f64,
    settled: Vec<Settled>,
    next: u64,
}

impl Generator {
    /// A stream for `seed` over `designs`, retrying among `settled` keys.
    pub fn new(
        seed: u64,
        designs: Vec<&'static str>,
        retry_share: f64,
        settled: Vec<Settled>,
    ) -> Self {
        Generator {
            rng: Rng::new(seed),
            designs,
            retry_share,
            settled,
            next: 0,
        }
    }

    /// The next request of the mix.
    pub fn request(&mut self) -> (Request, Check) {
        self.next += 1;
        let id = format!("r{}", self.next);
        if !self.settled.is_empty() && self.rng.next_f64() < self.retry_share {
            let k = self.rng.next_below(self.settled.len() as u64) as usize;
            let s = &self.settled[k];
            return (
                adapter::sweep(id, s.design, s.max_i, Some(s.key.clone())),
                Check::Retry(k),
            );
        }
        let u = self.rng.next_f64();
        let design = self.designs[self.rng.next_below(self.designs.len() as u64) as usize];
        if u < 0.6 {
            let (lo, hi) = SWEEP_MAX_I;
            let max_i = lo + self.rng.next_below(u64::from(hi - lo + 1)) as u32;
            let key = format!("k{}", self.next);
            (
                adapter::sweep(id, design, max_i, Some(key)),
                Check::Sweep { design, max_i },
            )
        } else {
            let strategy = if u < 0.9 { "single" } else { "multi" };
            (
                adapter::optimize(id, design, strategy),
                Check::Optimize { design, strategy },
            )
        }
    }

    /// A Poisson schedule at `rate` requests/s over `duration`.
    pub fn plan(&mut self, rate: f64, duration: Duration) -> Vec<Planned> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.next_f64()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return out;
            }
            let (req, check) = self.request();
            out.push(Planned {
                due: Duration::from_secs_f64(t),
                req,
                check,
            });
        }
    }
}

/// One request as sent.
#[derive(Debug)]
pub struct Sent {
    /// Index into the stage's plan.
    pub idx: usize,
    /// How late the generator sent it.
    pub late: Duration,
    /// Due time to response.
    pub latency: Duration,
    /// The response, or why none arrived.
    pub response: Result<Response, String>,
}

/// A stage as run.
#[derive(Debug, Default)]
pub struct StageRun {
    /// Every request sent, in plan order.
    pub sent: Vec<Sent>,
    /// Wall time of the stage.
    pub elapsed: Duration,
}

impl StageRun {
    /// Latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// How late the generator ran at worst, in milliseconds.
    pub fn late_max_ms(&self) -> f64 {
        self.sent
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// Appends a later part of the stage whose plan indices start at
    /// `offset` in the combined plan.
    pub fn append(&mut self, part: StageRun, offset: usize) {
        self.sent.extend(part.sent.into_iter().map(|s| Sent {
            idx: s.idx + offset,
            ..s
        }));
        self.elapsed += part.elapsed;
    }
}

/// Runs `senders` threads, each with the shipped client (a new
/// connection per request) making one attempt per request. Senders take
/// request indices in turn: `plan(i)` is the i-th request (`None` ends
/// the stage) and `due_at(i, start)` when it is due; a sender sleeps
/// until then and times the request from then. Request `i` is traced
/// as trace `first_trace + i`.
fn send_all(
    addr: &str,
    senders: usize,
    tracer: &Tracer,
    first_trace: u64,
    plan: impl Fn(usize) -> Option<Request> + Sync,
    due_at: impl Fn(usize, Instant) -> Instant + Sync,
) -> StageRun {
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| {
                let mut client: Client = adapter::client(addr);
                loop {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = plan(idx) else { return };
                    let due = due_at(idx, start);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late = Instant::now().saturating_duration_since(due);
                    let open = tracer.open(first_trace + idx as u64, None);
                    let response = client.send(&req);
                    tracer.close(open, "serve.request", &[]);
                    let latency = Instant::now().saturating_duration_since(due);
                    sent.lock()
                        .expect("no sender panics while holding the lock")
                        .push(Sent {
                            idx,
                            late,
                            latency,
                            response,
                        });
                }
            });
        }
    });
    let mut sent = sent
        .into_inner()
        .expect("no sender panics while holding the lock");
    sent.sort_by_key(|s| s.idx);
    StageRun {
        sent,
        elapsed: start.elapsed(),
    }
}

/// Sends `plan` open-loop: every request goes out when it is due, and
/// is timed from then, so a stall also delays the requests behind it.
pub fn open_loop(
    addr: &str,
    plan: &[Planned],
    senders: usize,
    tracer: &Tracer,
    first_trace: u64,
) -> StageRun {
    send_all(
        addr,
        senders,
        tracer,
        first_trace,
        |i| plan.get(i).map(|p| p.req.clone()),
        |i, start| start + plan[i].due,
    )
}

/// Sends the generator's stream closed-loop for `duration`: each sender
/// sends its next request as soon as its previous one is answered.
/// Returns the requests sent (in stream order) and the run.
pub fn closed_loop(
    addr: &str,
    gen: &mut Generator,
    senders: usize,
    duration: Duration,
) -> (Vec<Planned>, StageRun) {
    let stream = Mutex::new((gen, Vec::new()));
    let start = Instant::now();
    let run = send_all(
        addr,
        senders,
        &Tracer::new(false),
        0,
        |i| {
            if start.elapsed() >= duration {
                return None;
            }
            let mut guard = stream
                .lock()
                .expect("no sender panics while holding the lock");
            let (gen, planned) = &mut *guard;
            while planned.len() <= i {
                let (req, check) = gen.request();
                planned.push(Planned {
                    due: start.elapsed(),
                    req,
                    check,
                });
            }
            Some(planned[i].req.clone())
        },
        |_, _| Instant::now(),
    );
    let (_, planned) = stream
        .into_inner()
        .expect("no sender panics while holding the lock");
    (planned, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled() -> Vec<Settled> {
        (0..50)
            .map(|k| Settled {
                key: format!("s{k}"),
                design: "dist",
                max_i: 9,
            })
            .collect()
    }

    fn generator(seed: u64) -> Generator {
        Generator::new(seed, vec!["iir5", "dist", "steam"], 0.2, settled())
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_another_differs() {
        let a = generator(1).plan(40.0, Duration::from_secs(5));
        let b = generator(1).plan(40.0, Duration::from_secs(5));
        let c = generator(2).plan(40.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly 200 Poisson arrivals, all inside the window, in order.
        assert!((150..250).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|p| p.due < Duration::from_secs(5)));
    }

    #[test]
    fn the_mix_has_its_documented_shares() {
        let mut g = generator(3);
        let n = 20_000;
        let (mut retries, mut sweeps, mut single, mut multi) = (0, 0, 0, 0);
        for _ in 0..n {
            match g.request().1 {
                Check::Retry(k) => {
                    assert!(k < 50);
                    retries += 1;
                }
                Check::Sweep { max_i, .. } => {
                    assert!((SWEEP_MAX_I.0..=SWEEP_MAX_I.1).contains(&max_i));
                    sweeps += 1;
                }
                Check::Optimize {
                    strategy: "single", ..
                } => single += 1,
                Check::Optimize { .. } => multi += 1,
            }
        }
        let share = |k: i32| f64::from(k) / f64::from(n);
        assert!((share(retries) - 0.2).abs() < 0.02);
        assert!((share(sweeps) - 0.8 * 0.6).abs() < 0.02);
        assert!((share(single) - 0.8 * 0.3).abs() < 0.02);
        assert!((share(multi) - 0.8 * 0.1).abs() < 0.02);
    }

    #[test]
    fn retries_repeat_the_settled_request_under_a_new_id() {
        let settled = settled();
        let plan = generator(4).plan(200.0, Duration::from_secs(2));
        let retry = plan
            .iter()
            .find(|p| matches!(p.check, Check::Retry(_)))
            .expect("some retries in 400 requests");
        let Check::Retry(k) = retry.check else {
            unreachable!()
        };
        assert_eq!(
            adapter::request_key(&retry.req),
            Some(settled[k].key.as_str())
        );
        assert!(adapter::request_id(&retry.req).starts_with('r'));
    }
}
