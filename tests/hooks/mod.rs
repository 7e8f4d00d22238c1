//! Fault hooks the serve tests install on one request through
//! `ServeRuntime::try_submit_with_fault`: the worker runs the hook once per
//! kernel of that request's forward pass.

// Every test binary that mounts this module uses a subset of it.
#![allow(dead_code)]

use dynasparse::FaultHook;
use dynasparse_graph::FeatureMatrix;
use dynasparse_serve::{ServeRuntime, SubmitOptions, Ticket};
use std::sync::{Arc, Condvar, Mutex};

/// A hook that poisons its request: it panics mid-forward, with the arena
/// partially written, when kernel execution index `kernel` runs.
pub fn poison(kernel: usize) -> FaultHook {
    Arc::new(move |k| {
        if k == kernel {
            panic!("injected fault at kernel {kernel}");
        }
    })
}

#[derive(Default)]
struct ParkState {
    entered: bool,
    released: bool,
}

/// Parks a worker in its request's first kernel until the test releases
/// it.  The parked worker holds no queue lock, so whatever is submitted
/// meanwhile stays queued behind it, however the threads are timed.
#[derive(Default)]
pub struct Park {
    state: Mutex<ParkState>,
    changed: Condvar,
}

impl Park {
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    pub fn hook(self: &Arc<Self>) -> FaultHook {
        let park = Arc::clone(self);
        Arc::new(move |k| {
            if k == 0 {
                let mut state = park.state.lock().unwrap();
                state.entered = true;
                park.changed.notify_all();
                drop(park.changed.wait_while(state, |s| !s.released).unwrap());
            }
        })
    }

    /// Submits `features` to `runtime` to park its next free worker here.
    pub fn submit(self: &Arc<Self>, runtime: &ServeRuntime, features: &FeatureMatrix) -> Ticket {
        runtime
            .try_submit_with_fault(features.clone(), SubmitOptions::default(), self.hook())
            .unwrap()
    }

    /// Blocks until a worker is parked in the hook.
    pub fn entered(&self) {
        let state = self.state.lock().unwrap();
        drop(self.changed.wait_while(state, |s| !s.entered).unwrap());
    }

    pub fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.changed.notify_all();
    }
}
