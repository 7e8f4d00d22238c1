//! Load generation against a `ServeRuntime`: one generator thread, one
//! collector thread.
//!
//! The generator submits; the collector redeems tickets in submission order
//! (a client reading replies off one connection) and is blocked most of the
//! time, so the two worker threads keep the box's two cores.

use crate::trace::Tracer;
use crate::workloads::{sampled, Event, Outcome, Sample, SampleInput};
use dynasparse_graph::FeatureMatrix;
use dynasparse_serve::{ServeError, ServeRuntime, Ticket};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How requests are offered to the runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Open loop: Poisson arrivals at a fixed rate, sent with `try_submit`
    /// whether or not earlier requests have been answered.  The rate is a
    /// constant of the workload, not calibrated per run, so two commits of a
    /// comparison are offered the same load.
    Paced {
        /// Offered requests per second.
        rate_rps: f64,
        /// Seed of the arrival schedule.
        seed: u64,
    },
    /// Closed loop: one client submits with blocking `submit` as fast as the
    /// bounded queue admits, so its window is the queue capacity.
    Saturated,
}

/// Arrival offsets (ns from the start) of a Poisson process of `rate_rps`
/// over `seconds`: exponential gaps `-ln(1-u)/λ`.  A pure function of its
/// arguments, so a seed names one schedule.
pub fn poisson_schedule(seed: u64, rate_rps: f64, seconds: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9015_5017);
    let horizon = seconds * 1e9;
    let mut at = 0.0f64;
    let mut offsets = Vec::with_capacity((rate_rps * seconds) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate_rps * 1e9;
        if at >= horizon {
            return offsets;
        }
        offsets.push(at as u64);
    }
}

/// One accepted submission on its way to the collector.
struct Sent {
    ticket: Ticket,
    index: u64,
    slot: usize,
    /// When the request was due (open loop) or issued (closed loop); its
    /// latency is counted from here.
    due: Instant,
    submit_started: Instant,
    submit_ended: Instant,
}

/// What the collector hands back once the channel closes.
struct Collected {
    errors: u64,
    events: Vec<Event>,
    samples: Vec<Sample>,
    last_reply: Option<Instant>,
    tracer: Tracer,
}

fn collect(
    replies: mpsc::Receiver<Sent>,
    started: Instant,
    first_index: u64,
    mut tracer: Tracer,
) -> Collected {
    let (mut errors, mut events, mut samples, mut last_reply) = (0, Vec::new(), Vec::new(), None);
    for sent in replies {
        let result = sent.ticket.wait();
        let done = Instant::now();
        last_reply = Some(done);
        let id = Some(sent.index);
        let span = tracer.record("request", sent.due, done, None, id);
        if sent.submit_started > sent.due {
            tracer.record(
                "bench.generator_lag",
                sent.due,
                sent.submit_started,
                Some(span),
                id,
            );
        }
        tracer.record(
            "serve.submit",
            sent.submit_started,
            sent.submit_ended,
            Some(span),
            id,
        );
        tracer.record(
            "serve.queue_and_service",
            sent.submit_ended,
            done,
            Some(span),
            id,
        );
        let issued_s = sent.due.saturating_duration_since(started).as_secs_f64();
        let latency_ms = done.saturating_duration_since(sent.due).as_secs_f64() * 1e3;
        events.push(Event {
            issued_s,
            latency_ms: result.is_ok().then_some(latency_ms),
        });
        match result {
            Ok(report) if sampled(sent.index - first_index) => samples.push(Sample {
                input: SampleInput::Request(sent.slot),
                embeddings: report.output_embeddings,
            }),
            Ok(_) => {}
            Err(_) => errors += 1,
        }
    }
    Collected {
        errors,
        events,
        samples,
        last_reply,
        tracer,
    }
}

/// Offers `requests` (rotating) to `runtime` in `shape` for `budget`, and
/// redeems every accepted ticket before returning.  Requests are numbered
/// from `first_index`.
pub fn drive_serve(
    requests: &[FeatureMatrix],
    runtime: &ServeRuntime,
    shape: LoadShape,
    budget: Duration,
    first_index: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let (tx, rx) = mpsc::channel::<Sent>();
    let collector_tracer = tracer.fork(1);
    let mut lag_ms = Vec::new();
    let started = Instant::now();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, started, first_index, collector_tracer));
        // Submits request `index`; `due` is `None` for a closed loop, whose
        // requests are due the moment they are issued.
        let offer = |index: u64, due: Option<Instant>| -> (Instant, Result<(), ServeError>) {
            let slot = index as usize % requests.len();
            let features = requests[slot].clone();
            let submit_started = Instant::now();
            let ticket = match due {
                Some(_) => runtime.try_submit(features),
                None => runtime.submit(features),
            };
            let submit_ended = Instant::now();
            let admitted = ticket.map(|ticket| {
                tx.send(Sent {
                    ticket,
                    index,
                    slot,
                    due: due.unwrap_or(submit_started),
                    submit_started,
                    submit_ended,
                })
                .expect("collector outlives the generator")
            });
            (submit_started, admitted)
        };
        // A submission the runtime turned away is an attempted request that
        // was never answered.
        let mut tally = |issued: Instant, admitted: Result<(), ServeError>| {
            match admitted {
                Ok(()) => return,
                Err(ServeError::QueueFull { .. } | ServeError::Overloaded { .. }) => {
                    out.refused += 1
                }
                Err(_) => out.errors += 1,
            }
            out.events.push(Event {
                issued_s: issued.saturating_duration_since(started).as_secs_f64(),
                latency_ms: None,
            });
        };
        match shape {
            LoadShape::Paced { rate_rps, seed } => {
                let schedule = poisson_schedule(seed, rate_rps, budget.as_secs_f64());
                for (index, offset) in schedule.into_iter().enumerate() {
                    let due = started + Duration::from_nanos(offset);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (sent, admitted) = offer(first_index + index as u64, Some(due));
                    tally(due, admitted);
                    lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
            }
            LoadShape::Saturated => {
                let mut index = first_index;
                while started.elapsed() < budget {
                    let (sent, admitted) = offer(index, None);
                    tally(sent, admitted);
                    index += 1;
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    out.lag_ms = lag_ms;
    out.errors += collected.errors;
    out.events.extend(collected.events);
    out.samples = collected.samples;
    out.wall_s = collected
        .last_reply
        .map_or(started.elapsed(), |at| {
            at.saturating_duration_since(started)
        })
        .as_secs_f64();
    tracer.absorb(collected.tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 500.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 500.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|&ns| ns < 2_000_000_000));
        // 1000 expected arrivals; five standard deviations is ~160.
        assert!((840..=1160).contains(&a.len()), "{} arrivals", a.len());
    }
}
