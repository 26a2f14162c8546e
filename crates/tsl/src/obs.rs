//! One observation handle for every storage component.
//!
//! A predictor decision is recorded in three places: the trace ring
//! (`mitt-trace`), the engine profiler (`mitt-prof`) and the windowed
//! timelines of this crate. [`Obs`] bundles the three handles so that a
//! component holds one field and one setter, and so that each decision is
//! one call. The fused methods below own the policy of what a decision
//! records and in which order; everything else (markers, gauges, phase
//! timers) goes straight to the inner handle.
//!
//! Two rules the fused methods keep:
//!
//! - [`Obs::predict`] records the predictor's **raw** verdict in the
//!   trace, so audit mode and error injection do not distort predictor
//!   stats. [`Obs::admit`] and [`Obs::reject`] record the **post-policy**
//!   decision in the timelines.
//! - [`Obs::reject`] emits the node-level `Reject` and its `Attribution`
//!   back to back, the pairing `mitt-obs` consumers rely on.

use mitt_prof::ProfSink;
use mitt_sim::{Duration, SimTime};
use mitt_trace::report::EBUSY_COUNTER;
use mitt_trace::{EventKind, Resource, Subsystem, TraceSink};

use crate::TslSink;

/// The trace, profiler and timeline handles a component records into.
///
/// Cloning shares the underlying collectors; a default handle is disabled
/// in all three and costs one branch per call.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Event ring and metrics registry.
    pub trace: TraceSink,
    /// Engine wall-clock profiler; never feeds a digest.
    pub prof: ProfSink,
    /// Windowed timelines and burn-rate alerting.
    pub tsl: TslSink,
}

impl Obs {
    /// A handle to the same collectors whose trace events, counters and
    /// timeline samples are tagged with `node`.
    pub fn for_node(&self, node: u32) -> Self {
        Obs {
            trace: self.trace.for_node(node),
            prof: self.prof.clone(),
            tsl: self.tsl.for_node(node),
        }
    }

    /// Records a predictor's raw verdict on `io`: the `predict` event and
    /// the subsystem's admit or reject counter.
    pub fn predict(
        &self,
        now: SimTime,
        sub: Subsystem,
        io: u64,
        predicted_wait: Duration,
        deadline: Option<Duration>,
        admitted: bool,
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.emit(
            now,
            sub,
            EventKind::Predict {
                io,
                predicted_wait,
                deadline,
                admitted,
            },
        );
        let counter = if admitted {
            sub.admit_counter()
        } else {
            sub.reject_counter()
        };
        self.trace.count(counter, 1);
    }

    /// Records an admission that survived policy in the timeline window.
    pub fn admit(&self, now: SimTime) {
        self.tsl.record_admit(now);
    }

    /// Records one EBUSY the node returns for `io`: the EBUSY counter, the
    /// node `Reject` carrying `predicted_wait`, directly followed by the
    /// `Attribution` blaming `resource` with `attributed_wait` and
    /// `detail`, the per-resource counter, and the timeline reject.
    ///
    /// The two waits differ only for an IO cancelled after admission: its
    /// `Reject` carries `Duration::MAX` while the attribution keeps the
    /// wait predicted when it was admitted.
    pub fn reject(
        &self,
        now: SimTime,
        io: u64,
        resource: Resource,
        predicted_wait: Duration,
        attributed_wait: Duration,
        detail: u64,
    ) {
        self.tsl.record_reject(now, resource);
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.count(EBUSY_COUNTER, 1);
        self.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Reject { io, predicted_wait },
        );
        self.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Attribution {
                io,
                resource,
                predicted_wait: attributed_wait,
                detail,
            },
        );
        self.trace.count(resource.counter(), 1);
    }

    /// Records a scheduler moving `io` into the device: the end of its
    /// queued `span` and a dispatch in the timeline window.
    pub fn dispatch(&self, now: SimTime, span: &'static str, io: u64) {
        self.tsl.record_dispatch(now);
        self.trace.emit(
            now,
            Subsystem::Sched,
            EventKind::SpanEnd { name: span, id: io },
        );
    }

    /// Records a device finishing `io` after `service`: the end of its
    /// device `span`, the `complete` event, and the service time in the
    /// timeline window.
    pub fn service(
        &self,
        now: SimTime,
        sub: Subsystem,
        span: &'static str,
        io: u64,
        service: Duration,
    ) {
        self.tsl.observe_service(now, service);
        self.trace
            .emit(now, sub, EventKind::SpanEnd { name: span, id: io });
        self.trace
            .emit(now, sub, EventKind::Complete { io, wait: service });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TslConfig;
    use mitt_prof::Phase;
    use mitt_sim::Fnv1a;

    fn enabled() -> Obs {
        Obs {
            trace: TraceSink::enabled(64),
            prof: ProfSink::enabled(),
            tsl: TslSink::enabled(TslConfig::default(), "mittos"),
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// The timeline cell of `node` for the window holding time 0.
    fn first_window(obs: &Obs, node: u32) -> crate::WindowStats {
        let core = obs.tsl.core.as_ref().expect("enabled").borrow();
        core.windows.get(&(node, 0)).cloned().unwrap_or_default()
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::default().for_node(3);
        {
            let _g = obs.prof.phase(Phase::Dispatch);
            obs.prof.io_submitted();
            obs.prof.event_dispatched();
            obs.predict(at(1), Subsystem::MittCfq, 1, Duration::ZERO, None, false);
            obs.admit(at(1));
            obs.reject(
                at(2),
                1,
                Resource::CfqQueue,
                Duration::ZERO,
                Duration::ZERO,
                4,
            );
            obs.dispatch(at(3), "sched_q", 1);
            obs.service(at(4), Subsystem::Disk, "disk_io", 1, Duration::ZERO);
            obs.trace.observe_ns("h", 5);
            obs.tsl.observe_get(at(5), Duration::from_millis(1));
        }
        assert!(!obs.trace.is_enabled() && !obs.prof.is_enabled() && !obs.tsl.is_enabled());
        assert_eq!((obs.trace.len(), obs.trace.recorded()), (0, 0));
        assert!(obs.trace.metrics().is_empty());
        obs.prof.finish(at(5));
        let r = obs.prof.report();
        assert_eq!(r.ios_submitted, 0);
        assert!(r.phases.iter().all(|p| p.count == 0));
        assert!(!obs.tsl.tick(at(1_000_000_000)));
        assert!(obs.tsl.alerts().is_empty());
        let mut h = Fnv1a::new();
        obs.tsl.fold_digest(&mut h);
        let mut marker = Fnv1a::new();
        marker.write_u64(0);
        assert_eq!(h.finish(), marker.finish(), "disabled tsl folds a marker");
    }

    #[test]
    fn clones_share_one_buffer_and_keep_node_tags() {
        let obs = enabled();
        let n0 = obs.for_node(0);
        let n1 = obs.for_node(1);
        n0.dispatch(at(10), "sched_q", 1);
        n1.dispatch(at(10), "sched_q", 2);
        n1.trace.count("node.submit", 2);
        n0.prof.io_submitted();
        n1.prof.io_submitted();
        let events = obs.trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].node, events[1].node), (0, 1));
        assert_eq!(
            obs.trace
                .metrics()
                .counter_by_key("node.submit")
                .collect::<Vec<_>>(),
            vec![(1, 2)]
        );
        assert_eq!(obs.prof.report().ios_submitted, 2);
        assert_eq!(first_window(&obs, 0).dispatches, 1);
        assert_eq!(first_window(&obs, 1).dispatches, 1);
    }

    #[test]
    fn reject_puts_attribution_directly_after_reject() {
        let obs = enabled().for_node(2);
        obs.predict(
            at(5),
            Subsystem::MittCfq,
            7,
            Duration::from_millis(40),
            Some(Duration::from_millis(20)),
            true,
        );
        // A bumped IO: the Reject carries MAX, the attribution keeps the
        // wait predicted at admission.
        obs.reject(
            at(9),
            7,
            Resource::CfqQueue,
            Duration::MAX,
            Duration::from_millis(40),
            3,
        );
        let kinds: Vec<_> = obs.trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(
            kinds[1],
            EventKind::Reject {
                io: 7,
                predicted_wait: Duration::MAX
            }
        ));
        assert_eq!(
            kinds[2],
            EventKind::Attribution {
                io: 7,
                resource: Resource::CfqQueue,
                predicted_wait: Duration::from_millis(40),
                detail: 3,
            }
        );
        let m = obs.trace.metrics();
        assert_eq!(m.counter_total(Subsystem::MittCfq.admit_counter()), 1);
        assert_eq!(m.counter_total(EBUSY_COUNTER), 1);
        assert_eq!(m.counter_total(Resource::CfqQueue.counter()), 1);
        let cell = first_window(&obs, 2);
        assert_eq!(cell.rejects, 1);
        assert_eq!(
            cell.rejects_by_resource[Resource::CfqQueue.code() as usize],
            1
        );
    }
}
