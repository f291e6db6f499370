//! Criterion benchmark for experiment E3: conditional (reapplied) device
//! operations vs. the naive apply-then-recover strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use lexpress::{Image, OpKind, TargetOp};
use metacomm::filter;
use pbx::{DialPlan, Store};
use std::sync::Arc;

fn add_op(conditional: bool) -> TargetOp {
    TargetOp {
        kind: OpKind::Add,
        conditional,
        old_key: None,
        new_key: Some("9123".to_string()),
        attrs: Image::from_pairs([("Name", "Doe, John"), ("CoveragePath", "1")]),
        old_attrs: Image::new(),
    }
}

fn bench_reapply(c: &mut Criterion) {
    let store = Arc::new(Store::new("pbx-west", DialPlan::with_prefix("9", 4)));
    let filter = filter::for_pbx(store);
    filter.apply(&add_op(false)).unwrap();

    let mut group = c.benchmark_group("reapply/duplicate_add");
    group.bench_function("conditional_modify", |b| {
        b.iter(|| filter.apply(&add_op(true)).unwrap())
    });
    group.bench_function("naive_error_recovery", |b| {
        b.iter(|| {
            filter.apply(&add_op(false)).unwrap_err();
            filter.apply(&add_op(true)).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_reapply
}
criterion_main!(benches);
