//! The benchmark's own arithmetic: the percentile rule, self time from
//! nested spans, `/proc/self/stat` and `VmHWM` parsing, and fail fractions.

use snbc_perfbench::procfs::{self, parse_auxv_clk_tck, parse_stat, parse_vm_hwm_kib, CpuTicks};
use snbc_perfbench::spans::{self_times_ns, Recorder, Span};
use snbc_perfbench::stats::{fail_frac, median, percentile, tail_percentile};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0), Some(1.0));
    assert_eq!(percentile(&v, 50), Some(10.0));
    assert_eq!(percentile(&v, 51), Some(11.0));
    assert_eq!(percentile(&v, 95), Some(19.0));
    assert_eq!(percentile(&v, 100), Some(20.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(10, 10), None);
    assert_eq!(tail_percentile(11, 10), Some(9));
    assert_eq!(tail_percentile(20, 10), Some(50));
    assert_eq!(tail_percentile(40, 10), Some(75));
    assert_eq!(tail_percentile(100, 10), Some(90));
    assert_eq!(tail_percentile(1000, 10), Some(99));
    for n in 11..300 {
        let p = tail_percentile(n, 10).expect("n > 10");
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        assert!(n - rank >= 10, "n = {n}, p = {p}");
        let next = (u64::from(p + 1) * n as u64).div_ceil(100) as usize;
        assert!(
            p == 100 || n - next < 10,
            "p + 1 would also qualify at n = {n}"
        );
    }
}

#[test]
fn fail_fraction_uses_the_stated_base() {
    assert_eq!(fail_frac(1, 10), 0.1);
    assert_eq!(fail_frac(0, 4), 0.0);
    assert_eq!(fail_frac(0, 0), 0.0);
    assert_eq!(fail_frac(3, 3), 1.0);
}

#[test]
#[should_panic(expected = "failures out of a base")]
fn fail_fraction_rejects_more_failures_than_base() {
    fail_frac(2, 1);
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        cpu: CpuTicks::default(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("solve", 0, 100, None),
        span("engine", 10, 30, Some(0)),
        span("cegis_step", 20, 50, Some(0)), // overlaps `engine`: counted once
        span("cegis_step", 60, 70, Some(0)),
        span("learn", 61, 69, Some(3)), // grandchild: only its parent loses it
        span("late", 90, 120, Some(0)), // clipped to the parent's end
    ];
    assert_eq!(
        self_times_ns(&spans),
        vec![100 - 40 - 10 - 10, 20, 30, 2, 8, 30]
    );
}

#[test]
fn recorder_nests_spans_and_a_disabled_one_records_nothing() {
    let mut tr = Recorder::new(true);
    let v = tr.span("outer", |tr| {
        tr.span("inner", |_| 7) + tr.span("inner", |_| 1)
    });
    assert_eq!(v, 8);
    let names: Vec<_> = tr
        .spans()
        .iter()
        .map(|s| (s.name.as_str(), s.parent))
        .collect();
    assert_eq!(
        names,
        vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
    );
    assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(tr.named("inner").count(), 2);

    let mut off = Recorder::new(false);
    assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 3)), 3);
    assert!(off.spans().is_empty());
}

#[test]
fn stat_fields_count_from_the_last_parenthesis() {
    let line =
        "4242 (snbc (x) y) R 1 4242 4242 0 -1 4194304 100 0 0 0 1234 567 0 0 20 0 3 0 99 1000 50";
    assert_eq!(
        parse_stat(line),
        Some(CpuTicks {
            user: 1234,
            sys: 567
        })
    );
    assert_eq!(parse_stat("4242 (truncated) R 1 2"), None);
    assert_eq!(parse_stat("no parenthesis"), None);
    let later = CpuTicks {
        user: 1300,
        sys: 560,
    };
    assert_eq!(
        later.since(CpuTicks {
            user: 1234,
            sys: 567
        }),
        CpuTicks { user: 66, sys: 0 }
    );
}

#[test]
fn live_stat_counts_cpu_time() {
    let before = procfs::cpu_ticks();
    let mut x = 0u64;
    let t = std::time::Instant::now();
    while t.elapsed().as_millis() < 200 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let spent = procfs::cpu_ticks().since(before);
    assert!(
        spent.user + spent.sys > 0,
        "200 ms of spinning shows in /proc/self/stat"
    );
    assert!(procfs::ticks_per_second() > 0);
    assert!(procfs::peak_rss_mib() > 0.0);
}

#[test]
fn vm_hwm_is_read_in_kibibytes() {
    let status = "Name:\tsnbc\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   1000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(12345));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t 1000 MB\n"), None);
}

#[test]
fn auxv_clock_ticks_entry() {
    let mut auxv = Vec::new();
    for word in [6u64, 4096, 17, 100, 0, 0] {
        auxv.extend_from_slice(&word.to_ne_bytes());
    }
    assert_eq!(parse_auxv_clk_tck(&auxv), Some(100));
    assert_eq!(parse_auxv_clk_tck(&auxv[..16]), None);
}
