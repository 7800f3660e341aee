//! In-process publish/subscribe fan-out of [`JobEvent`]s to watchers.
//!
//! Delivery is *bounded*: every subscriber has a fixed-capacity channel
//! and a publish never blocks on a slow consumer. Instead the event is
//! dropped for that subscriber — and because every published event
//! carries a server-wide monotonic `seq`, the subscriber observes the
//! drop as a gap in the sequence numbers rather than silent loss.

use crate::protocol::{JobEvent, JobEventPayload};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Default per-subscriber channel capacity. Large enough that only a
/// genuinely stuck consumer ever drops events.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

struct Subscriber {
    /// `Some(id)` restricts delivery to that job's events.
    job: Option<u64>,
    tx: mpsc::SyncSender<JobEvent>,
}

/// Broadcasts job events to any number of subscribers. Disconnected
/// subscribers (dropped receivers) are pruned on the next publish; slow
/// subscribers (full channels) lose the event but stay subscribed.
pub struct EventBus {
    subscribers: Mutex<Vec<Subscriber>>,
    next_seq: AtomicU64,
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        snn_cluster::lock_order::register();
        Self {
            subscribers: Mutex::named("service.bus.subscribers", Vec::new()),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Registers a subscriber with the default channel capacity.
    /// `job = Some(id)` delivers only that job's events; `None` delivers
    /// everything.
    pub fn subscribe(&self, job: Option<u64>) -> mpsc::Receiver<JobEvent> {
        self.subscribe_with_capacity(job, DEFAULT_SUBSCRIBER_CAPACITY)
    }

    /// Registers a subscriber whose channel holds at most `capacity`
    /// undelivered events (minimum 1). Events published while the
    /// channel is full are dropped for this subscriber; the next event
    /// it does receive has a non-consecutive `seq`.
    pub fn subscribe_with_capacity(
        &self,
        job: Option<u64>,
        capacity: usize,
    ) -> mpsc::Receiver<JobEvent> {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        self.subscribers.lock().push(Subscriber { job, tx });
        rx
    }

    /// Wraps `payload` in an envelope carrying the next sequence number
    /// and the emission time, without delivering it.
    pub fn stamp(&self, payload: JobEventPayload) -> JobEvent {
        JobEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at_ms: crate::store::now_ms(),
            payload,
        }
    }

    /// Stamps `payload` with the next sequence number and the emission
    /// time, then delivers it to every interested live subscriber.
    /// Never blocks: a full subscriber channel drops this event for
    /// that subscriber.
    pub fn publish(&self, payload: JobEventPayload) {
        let event = self.stamp(payload);
        let mut subs = self.subscribers.lock();
        subs.retain(|s| {
            if s.job.is_some_and(|id| id != event.job()) {
                return true; // not interested, but still live
            }
            match s.tx.try_send(event.clone()) {
                Ok(()) => true,
                // Slow subscriber: drop the event, keep the subscription.
                // The seq gap makes the loss observable on their side.
                Err(mpsc::TrySendError::Full(_)) => {
                    snn_obs::counter!(
                        "snn_service_events_dropped_total",
                        "Events dropped because a subscriber channel was full."
                    )
                    .inc();
                    true
                }
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
    }

    /// Live subscriber count (dead ones linger until a publish prunes
    /// them).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobState;

    fn state_payload(job: u64) -> JobEventPayload {
        JobEventPayload::State { job, state: JobState::Running, error: None }
    }

    #[test]
    fn filtered_subscribers_see_only_their_job() {
        let bus = EventBus::new();
        let all = bus.subscribe(None);
        let only_two = bus.subscribe(Some(2));

        bus.publish(state_payload(1));
        bus.publish(state_payload(2));

        assert_eq!(all.try_iter().count(), 2);
        let got: Vec<_> = only_two.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].job(), 2);
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_publish() {
        let bus = EventBus::new();
        let rx = bus.subscribe(None);
        drop(rx);
        assert_eq!(bus.subscriber_count(), 1);
        bus.publish(state_payload(1));
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn sequence_numbers_are_consecutive_and_stamped_at_publish() {
        let bus = EventBus::new();
        let rx = bus.subscribe(None);
        for job in 0..5 {
            bus.publish(state_payload(job));
        }
        let got: Vec<JobEvent> = rx.try_iter().collect();
        assert_eq!(got.len(), 5);
        for (i, event) in got.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
            assert!(event.at_ms > 0, "emission timestamp must be stamped");
        }
    }

    #[test]
    fn slow_subscriber_observes_a_seq_gap_not_silent_loss() {
        let bus = EventBus::new();
        // Capacity 2: the subscriber can buffer two events; the third
        // and fourth are dropped while it is "busy".
        let rx = bus.subscribe_with_capacity(None, 2);
        for job in 0..4 {
            bus.publish(state_payload(job));
        }
        assert_eq!(bus.subscriber_count(), 1, "slow subscriber must stay subscribed");

        // The consumer wakes up and drains: seq 0 and 1 arrived, 2 and 3
        // were dropped.
        let first = rx.recv().expect("buffered event");
        let second = rx.recv().expect("buffered event");
        assert_eq!((first.seq, second.seq), (0, 1));

        // It catches up: the next event it sees skips the dropped range.
        bus.publish(state_payload(9));
        let resumed = rx.recv().expect("post-drain event");
        assert_eq!(resumed.seq, 4, "seq gap (2, 3 missing) reveals the dropped events");
        assert!(resumed.seq > second.seq + 1, "the gap is observable");
    }
}
