//! Pins that a capped service's live heap stays bounded.
//!
//! A `Service` with `capacity: Some(1)` is fed 60 distinct modules
//! under one name. Each request evicts the previous entry, and with it
//! everything that entry held: its module, analysis, substrates and
//! their reachability rows. So after warm-up the live heap must stop
//! growing. Any store that outlives the evicted entries, such as a
//! service-wide table of reachability rows, breaks that.
//!
//! The counting global allocator in `common/` tracks live bytes; the
//! file holds a single test, so nothing else allocates while it
//! measures. The service runs sequentially, so every allocation is this
//! test's.

use fenceplace::{PipelineConfig, Service, ServiceOptions, TargetModel, Variant};
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;

mod common;
use common::LIVE;

/// Requests sent, and the request after which the baseline is read.
const REQUESTS: usize = 60;
const WARM_UP: usize = 10;

/// How far the live heap may move between the two readings. Module `i`
/// is a little larger than module `i - 1`, so the one resident entry
/// grows slightly: about 15 KB over the 50 requests. Keeping every
/// evicted chain's reachability rows adds about 2.4 MB.
const SLACK: usize = 256 << 10;

/// Module `i`: one function whose `400 + i` blocks form a chain, each
/// block loading `@g` and branching to the next.
fn chain_module(i: usize) -> String {
    let k = 400 + i;
    let mut text = String::from("module m\nglobal g 1\n\nfn f params=0 locals=() {\n");
    for j in 0..k {
        let entry = if j == 0 { " ; entry" } else { "" };
        let _ = write!(text, "bb{j}:{entry}\n  %{j} = load @g\n");
        if j + 1 < k {
            let _ = writeln!(text, "  br bb{}", j + 1);
        } else {
            text.push_str("  ret\n");
        }
    }
    text.push_str("}\n");
    text
}

#[test]
fn capped_service_heap_stays_bounded() {
    let mut service = Service::new(ServiceOptions {
        budget: None,
        capacity: Some(1),
    });
    let configs = [PipelineConfig {
        variant: Variant::Control,
        target: TargetModel::X86Tso,
        parallel: false,
    }];
    let mut baseline = 0;
    for i in 0..REQUESTS {
        let text = chain_module(i);
        let r = service.analyze("m", &text, &configs, None);
        assert!(r.outcome.is_ok(), "module {i}: {:?}", r.outcome);
        drop((r, text));
        if i + 1 == WARM_UP {
            baseline = LIVE.load(Relaxed);
        }
    }
    let live = LIVE.load(Relaxed);
    assert_eq!(service.cached_modules(), 1);
    assert_eq!(service.stats().evictions, (REQUESTS - 1) as u64);
    assert!(
        live.abs_diff(baseline) <= SLACK,
        "live heap moved by {:+} KB between request {WARM_UP} and request {REQUESTS}, \
         over the {} KB bound",
        (live as i64 - baseline as i64) / 1024,
        SLACK >> 10
    );
}
