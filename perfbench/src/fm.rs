//! A delegating [`FoundationModel`] that times every completion, modelled
//! on `smartfeat_fm::Transcribing`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smartfeat_fm::{FmError, FmResponse, FoundationModel, RoutingSnapshot, UsageMeter};

use crate::clock;

/// Completion count and busy time, shared by every wrapper of one pass.
#[derive(Debug, Default)]
pub struct FmTime {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl FmTime {
    /// `complete` calls made, failed ones included.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Wall time spent inside `complete`.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Wraps a model; answers, meters and routing are the inner model's.
pub struct TimedFm<M> {
    inner: M,
    time: Arc<FmTime>,
}

impl<M: FoundationModel> TimedFm<M> {
    /// Wrap `inner`, accumulating into `time`.
    pub fn new(inner: M, time: Arc<FmTime>) -> Self {
        TimedFm { inner, time }
    }
}

impl<M: FoundationModel> FoundationModel for TimedFm<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        let start = clock::now();
        let out = self.inner.complete(prompt);
        let nanos =
            u64::try_from(clock::now().saturating_sub(start).as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: no other data is published through these.
        self.time.calls.fetch_add(1, Ordering::Relaxed);
        self.time.nanos.fetch_add(nanos, Ordering::Relaxed);
        out
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }

    fn routing(&self) -> Option<RoutingSnapshot> {
        self.inner.routing()
    }
}
