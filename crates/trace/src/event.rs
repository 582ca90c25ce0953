//! The fixed-size binary event model.
//!
//! Every trace record is 48 bytes of atomics in its ring slot: a
//! sequence word plus five payload words packing a timestamp, the
//! event kind, the writing lane, a job tag and three generic 64-bit
//! operands (`a`, `b`, `c`) whose meaning depends on the kind — see
//! [`EventKind`] for the per-kind layout. The operands are full words
//! on purpose: session and request ids are monotone and never reused,
//! so a long-lived service would silently alias trace identities if
//! the payload truncated them to 32 bits.

/// What happened. The operand meanings (`a`/`b`/`c` of
/// [`TraceEvent`]) are listed per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One completed firing: `a` = node, `b` = plan (phase) index,
    /// `c` = packed duration + produced data tokens (see
    /// [`TraceEvent::pack_firing`]). The timestamp is the firing's
    /// *start*; start and end collapse into one record so the hot
    /// path pays for a single event per firing.
    Firing = 1,
    /// A firing of a hint stolen from a foreign ready queue: `a` =
    /// node.
    Steal = 2,
    /// A worker started waiting for work (span start; paired with
    /// [`EventKind::Wake`]).
    Park = 3,
    /// A parked worker resumed hunting (span end).
    Wake = 4,
    /// The iteration barrier began on this worker: `c` = finished
    /// iteration index.
    BarrierEnter = 5,
    /// The iteration barrier finished: `b` = 1 when the run completed,
    /// `c` = finished iteration index.
    BarrierExit = 6,
    /// A parameter rebinding switched the active plan: `a` = new plan
    /// index, `c` = iteration index.
    PlanSwitch = 7,
    /// A ring grew at a rebind barrier: `a` = channel, `b` = previous
    /// capacity, `c` = new capacity.
    RingGrow = 8,
    /// A control actor emitted a mode: `a` = node, `b` = encoded mode.
    ModeEmit = 9,
    /// A real-time deadline was missed: `a` = node.
    DeadlineMiss = 10,
    /// The stall detector declared the run dead: `c` = iteration.
    Stall = 11,
    /// A job entered the pool's slot table: `a` = participation slots.
    JobSubmit = 12,
    /// A worker claimed a participation slot of a job: `a` = slot
    /// index.
    JobClaim = 13,
    /// A job was finalised: `b` = 1 when it failed.
    JobFinalize = 14,
    /// A session was admitted: `a` = session id, `b` = 1 when the
    /// session was restored from a checkpoint.
    SessionOpen = 15,
    /// Admission refused a session: `a` = 0 for the session limit
    /// (`c` = the limit), 1 for deadline oversubscription (`c` = the
    /// truncated demand).
    SessionReject = 16,
    /// A queued request was dispatched onto the pool: `a` = session
    /// id, `b` = request id, `c` = queue-wait nanoseconds.
    SessionDispatch = 17,
    /// A session closed (`b` = 0) or was cancelled (`b` = 1):
    /// `a` = session id.
    SessionClose = 18,
    /// A request joined a session's ingress queue: `a` = session id,
    /// `b` = request id.
    RequestSubmit = 19,
    /// A dispatched run finished: `a` = session id, `b` = request id,
    /// `c` = end-to-end latency in nanoseconds.
    RunComplete = 20,
    /// Firing slabs were returned to a worker's slab arena: `a` = node
    /// of the sampled firing, `c` = slabs recycled since the worker's
    /// last sampled firing. Emitted on the 1-in-8 sampling cadence,
    /// never per firing.
    SlabRecycle = 21,
    /// A slab request missed the arena and fell back to the global
    /// allocator: `a` = node of the sampled firing, `c` = misses since
    /// the worker's last sampled firing (cold start or ring growth).
    SlabMiss = 22,
    /// A barrier-consistent checkpoint capture started: `a` = session
    /// id, `c` = runs completed at the request barrier.
    CheckpointBegin = 23,
    /// The checkpoint capture finished: `a` = session id, `c` = runs
    /// completed in the captured ledger.
    CheckpointEnd = 24,
    /// A session moved between services: `a` = source session id, `b` =
    /// destination session id, `c` = the checkpointed run count.
    SessionMigrate = 25,
    /// The net layer accepted a client connection: `a` = connection id.
    ConnAccept = 26,
    /// A complete frame arrived on a connection: `a` = connection id,
    /// `b` = frame type byte, `c` = bytes the frame took on the wire
    /// (its 4-byte length prefix included).
    FrameRecv = 27,
    /// Backpressure was signalled to a client (full ingress queue or
    /// admission refusal): `a` = connection id, `b` = session id.
    Backoff = 28,
    /// A connection ended: `a` = connection id, `b` = reason (0 =
    /// clean `Bye`, 1 = peer disconnect, 2 = evicted as slow or idle,
    /// 3 = protocol error).
    ConnClose = 29,
}

impl EventKind {
    /// Decodes the wire byte; `None` for torn or future values.
    pub fn from_u8(value: u8) -> Option<EventKind> {
        Some(match value {
            1 => EventKind::Firing,
            2 => EventKind::Steal,
            3 => EventKind::Park,
            4 => EventKind::Wake,
            5 => EventKind::BarrierEnter,
            6 => EventKind::BarrierExit,
            7 => EventKind::PlanSwitch,
            8 => EventKind::RingGrow,
            9 => EventKind::ModeEmit,
            10 => EventKind::DeadlineMiss,
            11 => EventKind::Stall,
            12 => EventKind::JobSubmit,
            13 => EventKind::JobClaim,
            14 => EventKind::JobFinalize,
            15 => EventKind::SessionOpen,
            16 => EventKind::SessionReject,
            17 => EventKind::SessionDispatch,
            18 => EventKind::SessionClose,
            19 => EventKind::RequestSubmit,
            20 => EventKind::RunComplete,
            21 => EventKind::SlabRecycle,
            22 => EventKind::SlabMiss,
            23 => EventKind::CheckpointBegin,
            24 => EventKind::CheckpointEnd,
            25 => EventKind::SessionMigrate,
            26 => EventKind::ConnAccept,
            27 => EventKind::FrameRecv,
            28 => EventKind::Backoff,
            29 => EventKind::ConnClose,
            _ => return None,
        })
    }

    /// A short stable label (used by exporters and stall dumps).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Firing => "firing",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
            EventKind::BarrierEnter => "barrier_enter",
            EventKind::BarrierExit => "barrier_exit",
            EventKind::PlanSwitch => "plan_switch",
            EventKind::RingGrow => "ring_grow",
            EventKind::ModeEmit => "mode_emit",
            EventKind::DeadlineMiss => "deadline_miss",
            EventKind::Stall => "stall",
            EventKind::JobSubmit => "job_submit",
            EventKind::JobClaim => "job_claim",
            EventKind::JobFinalize => "job_finalize",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionReject => "session_reject",
            EventKind::SessionDispatch => "session_dispatch",
            EventKind::SessionClose => "session_close",
            EventKind::RequestSubmit => "request_submit",
            EventKind::RunComplete => "run_complete",
            EventKind::SlabRecycle => "slab_recycle",
            EventKind::SlabMiss => "slab_miss",
            EventKind::CheckpointBegin => "checkpoint_begin",
            EventKind::CheckpointEnd => "checkpoint_end",
            EventKind::SessionMigrate => "session_migrate",
            EventKind::ConnAccept => "conn_accept",
            EventKind::FrameRecv => "frame_recv",
            EventKind::Backoff => "backoff",
            EventKind::ConnClose => "conn_close",
        }
    }
}

/// Bits of the firing `c` operand holding the duration (the rest holds
/// the produced token count).
const FIRING_DUR_BITS: u32 = 40;
const FIRING_DUR_MASK: u64 = (1 << FIRING_DUR_BITS) - 1;

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The ring lane the event was written to: the worker's
    /// participation index, or the control lane for job/session
    /// lifecycle events.
    pub lane: u16,
    /// The job tag of the emitting run: a session's trace tag in a
    /// service, a pool-assigned id for untagged jobs.
    pub job: u32,
    /// First operand (kind-specific; usually the node or session).
    /// Full-width so monotone ids never alias.
    pub a: u64,
    /// Second operand (kind-specific; full-width like `a`).
    pub b: u64,
    /// Third operand (kind-specific; 64-bit for ids and packed
    /// payloads).
    pub c: u64,
}

impl TraceEvent {
    /// Packs a firing's duration and produced data-token count into
    /// the `c` operand: the low 40 bits hold the duration in
    /// nanoseconds (saturating at ~18 minutes per firing), the high 24
    /// bits the token count (saturating at ~16.7M tokens per firing).
    pub fn pack_firing(duration_ns: u64, tokens: u64) -> u64 {
        (tokens.min((1 << 24) - 1) << FIRING_DUR_BITS) | duration_ns.min(FIRING_DUR_MASK)
    }

    /// The firing duration packed into `c` (see
    /// [`TraceEvent::pack_firing`]).
    pub fn firing_duration_ns(&self) -> u64 {
        self.c & FIRING_DUR_MASK
    }

    /// The produced data-token count packed into `c`.
    pub fn firing_tokens(&self) -> u64 {
        self.c >> FIRING_DUR_BITS
    }

    /// A compact single-line rendering (stall dumps, debugging).
    pub fn summary(&self) -> String {
        format!(
            "[{:>12}ns] job {} lane {} {:<16} a={} b={} c={}",
            self.ts_ns,
            self.job,
            self.lane,
            self.kind.label(),
            self.a,
            self.b,
            self.c
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_round_trip() {
        for byte in 0..=u8::MAX {
            if let Some(kind) = EventKind::from_u8(byte) {
                assert_eq!(kind as u8, byte);
            }
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(30), None);
    }

    #[test]
    fn firing_packing_round_trips_and_saturates() {
        let c = TraceEvent::pack_firing(12_345, 678);
        let ev = TraceEvent {
            ts_ns: 1,
            kind: EventKind::Firing,
            lane: 0,
            job: 0,
            a: 0,
            b: 0,
            c,
        };
        assert_eq!(ev.firing_duration_ns(), 12_345);
        assert_eq!(ev.firing_tokens(), 678);

        let sat = TraceEvent::pack_firing(u64::MAX, u64::MAX);
        assert_eq!(sat & ((1 << 40) - 1), (1 << 40) - 1);
        assert_eq!(sat >> 40, (1 << 24) - 1);
    }

    #[test]
    fn summary_mentions_kind_and_operands() {
        let ev = TraceEvent {
            ts_ns: 5,
            kind: EventKind::RingGrow,
            lane: 2,
            job: 3,
            a: 7,
            b: 8,
            c: 16,
        };
        let s = ev.summary();
        assert!(s.contains("ring_grow") && s.contains("a=7") && s.contains("c=16"));
    }
}
