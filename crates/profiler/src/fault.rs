//! `faultpoint!` — deterministic fault injection for supervision tests.
//!
//! Named panic sites are compiled into cold paths: a profiling worker's
//! message handling (`worker:chunk`, `worker:run`, `worker:dealloc`) and the
//! analysis daemon's stages (`serve:*`, in `discopop`). When a point is
//! *armed* it panics on its N-th hit; the supervision layer must then
//! recover. Disarmed, a point costs one relaxed atomic load on a branch the
//! predictor never misses — cheap enough to ship in release builds, which
//! is exactly where the fault-injection suite runs.
//!
//! Arm programmatically ([`arm`]/[`disarm_all`], used by
//! `tests/fault_injection.rs`) or through the environment:
//! `DISCOPOP_FAULTPOINT=name[:after]` arms one point at process start.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fast-path gate: `false` (the overwhelmingly common state) makes
/// [`point`] a single relaxed load. Starts `true` so the very first hit
/// takes the slow path once and runs the environment arming in [`armed`]
/// — gating on `false` initially would mean `DISCOPOP_FAULTPOINT` is
/// never even read; with nothing armed the first hit drops the gate and
/// the single-load fast path is restored for good.
static ENABLED: AtomicBool = AtomicBool::new(true);

struct Armed {
    name: String,
    /// Remaining hits before firing; fires when the decrement reaches zero.
    after: u64,
}

fn armed() -> &'static Mutex<Vec<Armed>> {
    static ARMED: OnceLock<Mutex<Vec<Armed>>> = OnceLock::new();
    ARMED.get_or_init(|| {
        // One-shot environment arming, so faults can be injected into the
        // release binary without a test harness in the same process.
        let mut list = Vec::new();
        if let Ok(spec) = std::env::var("DISCOPOP_FAULTPOINT") {
            if let Some((name, after)) = parse_spec(&spec) {
                list.push(Armed {
                    name: name.to_string(),
                    after,
                });
                ENABLED.store(true, Ordering::Relaxed);
            }
        }
        Mutex::new(list)
    })
}

/// Parse a `name[:after]` arming spec. Point names themselves contain
/// colons (`serve:mid-job`), so the optional `after` count is the suffix
/// after the *last* colon, and only when it is actually numeric.
fn parse_spec(spec: &str) -> Option<(&str, u64)> {
    let (name, after) = match spec.rsplit_once(':') {
        Some((n, a)) => match a.parse::<u64>() {
            Ok(after) => (n, after),
            Err(_) => (spec, 0),
        },
        None => (spec, 0),
    };
    (!name.is_empty()).then_some((name, after))
}

/// Hit a named fault point. Panics with a `faultpoint` payload when the
/// point is armed and its countdown expires; otherwise a no-op.
#[inline]
pub fn point(name: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    point_slow(name);
}

#[cold]
fn point_slow(name: &str) {
    let mut fire = false;
    {
        let Ok(mut list) = armed().lock() else {
            return;
        };
        if list.is_empty() {
            // Nothing armed (and env arming, run by `armed()` above, found
            // nothing): close the gate so later hits are a single load.
            // Stored under the lock so it serializes against `arm`.
            ENABLED.store(false, Ordering::Relaxed);
            return;
        }
        if let Some(i) = list.iter().position(|a| a.name == name) {
            if list[i].after == 0 {
                list.remove(i);
                if list.is_empty() {
                    ENABLED.store(false, Ordering::Relaxed);
                }
                fire = true;
            } else {
                list[i].after -= 1;
            }
        }
    }
    if fire {
        panic!("faultpoint `{name}` fired");
    }
}

/// Arm `name` to fire on its `after`-th subsequent hit (0 = next hit).
/// Counting is global across threads; the point disarms itself on firing.
pub fn arm(name: &str, after: u64) {
    let Ok(mut list) = armed().lock() else {
        return;
    };
    list.retain(|a| a.name != name);
    list.push(Armed {
        name: name.to_string(),
        after,
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarm every fault point (test teardown).
pub fn disarm_all() {
    if let Ok(mut list) = armed().lock() {
        list.clear();
    }
    ENABLED.store(false, Ordering::Relaxed);
}

/// Hit a fault point by name: `faultpoint!("worker:chunk")`. Expands to
/// [`point`]; exists so call sites read as annotations, not logic.
#[macro_export]
macro_rules! faultpoint {
    ($name:expr) => {
        $crate::fault::point($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_keeps_colons_inside_point_names() {
        // `serve:mid-job` is a name, not `serve` with a count of "mid-job".
        assert_eq!(parse_spec("serve:mid-job"), Some(("serve:mid-job", 0)));
        assert_eq!(parse_spec("serve:mid-job:2"), Some(("serve:mid-job", 2)));
        assert_eq!(parse_spec("worker:chunk:0"), Some(("worker:chunk", 0)));
        assert_eq!(parse_spec("plain"), Some(("plain", 0)));
        assert_eq!(parse_spec("plain:7"), Some(("plain", 7)));
        assert_eq!(parse_spec(""), None);
        assert_eq!(parse_spec(":3"), None);
    }

    #[test]
    fn disarmed_points_are_silent() {
        // Never armed anywhere: must be a no-op even while other tests arm
        // their own points concurrently.
        point("nothing:armed");
    }

    #[test]
    fn armed_point_fires_after_countdown_then_disarms() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        arm("t:count", 2);
        point("t:count");
        point("t:count");
        let r = std::panic::catch_unwind(|| point("t:count"));
        std::panic::set_hook(prev);
        assert!(r.is_err(), "third hit fires");
        // Fired points disarm themselves.
        point("t:count");
    }
}
