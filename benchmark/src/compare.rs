//! `compare a.json b.json`: one row per (metric, workload). A row is
//! `worse` when b's median is worse than a's by more than the metric's
//! bound (`metrics::END_TO_END`, which `BENCHMARK.json` is generated
//! from), and `unresolved` — never `unchanged` or `worse` — when either
//! side's own inter-quartile spread exceeds that bound. Failed
//! operations are compared absolutely.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of a's median b's is worse (negative: better).
pub fn worse_by(a_median: f64, b_median: f64, higher_is_better: bool) -> f64 {
    if a_median == 0.0 {
        return if b_median == a_median {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let change = (b_median - a_median) / a_median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let w = worse_by(
        crate::stats::median(a),
        crate::stats::median(b),
        higher_is_better,
    );
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

pub struct Report {
    pub lines: Vec<String>,
    pub worse: usize,
    pub unresolved: usize,
}

fn values(row: &Json) -> Option<Vec<f64>> {
    row.get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn key(row: &Json) -> Option<(&str, &str)> {
    Some((row.get("workload")?.as_str()?, row.get("metric")?.as_str()?))
}

pub fn compare(a: &Json, b: &Json) -> Result<Report, String> {
    let rows = |j: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(j.get("end_to_end")
            .and_then(Json::as_array)
            .ok_or("results file has no end_to_end list")?
            .to_vec())
    };
    let (a_rows, b_rows) = (rows(a)?, rows(b)?);
    let mut report = Report {
        lines: Vec::new(),
        worse: 0,
        unresolved: 0,
    };
    report.lines.push(format!(
        "{:<13} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse%", "a iqr%", "b iqr%", "bound%"
    ));
    for ra in &a_rows {
        let (w, m) = key(ra).ok_or("a: row without workload/metric")?;
        let Some(rb) = b_rows.iter().find(|r| key(r) == Some((w, m))) else {
            return Err(format!("b has no row for {m} @ {w}"));
        };
        let (va, vb) = (
            values(ra).ok_or("a: row without values")?,
            values(rb).ok_or("b: row without values")?,
        );
        let listed = END_TO_END
            .iter()
            .find(|e| e.name == m)
            .ok_or_else(|| format!("{m} @ {w} is not an end-to-end metric of this benchmark"))?;
        let (higher, bound) = (listed.better == "higher", listed.bound);
        let v = verdict(&va, &vb, higher, bound);
        match v {
            Verdict::Worse => report.worse += 1,
            Verdict::Unresolved => report.unresolved += 1,
            _ => {}
        }
        let (ma, mb) = (crate::stats::median(&va), crate::stats::median(&vb));
        report.lines.push(format!(
            "{w:<13} {m:<20} {ma:>14.6} {mb:>14.6} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {}",
            worse_by(ma, mb, higher) * 100.0,
            spread(&va) * 100.0,
            spread(&vb) * 100.0,
            bound * 100.0,
            v.label()
        ));
    }
    // fail_frac: absolute, no bound — any failed op on b that a did not
    // have is a regression.
    let fails = |j: &Json| -> Vec<(String, f64)> {
        j.get("fail")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                let frac = r.get("failed")?.as_f64()? / r.get("attempted")?.as_f64()?.max(1.0);
                Some((r.get("workload")?.as_str()?.to_string(), frac))
            })
            .collect()
    };
    let fb = fails(b);
    for (w, fa) in fails(a) {
        let frac_b = fb.iter().find(|(wb, _)| *wb == w).map_or(0.0, |(_, f)| *f);
        let v = if frac_b > fa {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        if v == Verdict::Worse {
            report.worse += 1;
        }
        report.lines.push(format!(
            "{w:<13} {:<20} {fa:>14.6} {frac_b:>14.6} {:>8} {:>7} {:>7} {:>6}  {}",
            "fail_frac",
            "abs",
            "-",
            "-",
            "0",
            v.label()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts_better_worse_unchanged_unresolved() {
        let steady = |m: f64| vec![m * 0.999, m, m * 1.001, m, m];
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&steady(100.0), &steady(105.0), false, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(111.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), false, 0.10),
            Verdict::Better
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), true, 0.10),
            Verdict::Better
        );
        // A side noisier than the bound is unresolved, whatever the medians.
        let noisy = vec![80.0, 95.0, 100.0, 105.0, 125.0];
        assert_eq!(
            verdict(&noisy, &steady(100.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady(100.0), &noisy, false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(200.0), false, 0.0005),
            Verdict::Unresolved
        );
    }

    fn results(metric: &str, values: &[f64], failed: u64) -> Json {
        parse(&format!(
            r#"{{"end_to_end": [{{"workload": "w", "metric": "{metric}", "values": {values:?}}}],
                "fail": [{{"workload": "w", "attempted": 100, "failed": {failed}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_counts_regressions_and_failed_ops() {
        // host_kops: higher is better, bound 25 %.
        let kops = |k: f64, failed| results("host_kops", &[k, k, k], failed);
        let same = compare(&kops(50.0, 0), &kops(49.0, 0)).unwrap();
        assert_eq!((same.worse, same.unresolved), (0, 0));
        let slower = compare(&kops(50.0, 0), &kops(30.0, 0)).unwrap();
        assert_eq!(slower.worse, 1);
        let failing = compare(&kops(50.0, 0), &kops(50.0, 1)).unwrap();
        assert_eq!(failing.worse, 1);
        assert!(failing.lines.last().unwrap().contains("fail_frac"));
        assert!(compare(&kops(50.0, 0), &parse("{}").unwrap()).is_err());
        let unknown = results("no_such_metric", &[1.0], 0);
        assert!(compare(&unknown, &unknown).is_err());
    }

    #[test]
    fn sub_millisecond_setups_of_identical_code_are_never_worse() {
        // Two sets of one commit: set-ups of 0.2-0.5 ms wobble by 0.1 ms
        // from repetition to repetition, and the medians are 30 % apart.
        let a = results("setup_s", &[0.00031, 0.00022, 0.00024, 0.00035, 0.00023], 0);
        let b = results("setup_s", &[0.00029, 0.00045, 0.00031, 0.00033, 0.00024], 0);
        let r = compare(&a, &b).unwrap();
        assert_eq!((r.worse, r.unresolved), (0, 1), "{:?}", r.lines);
        // A steady set-up that really doubled is still caught.
        let doubled = compare(
            &results("setup_s", &[0.0300, 0.0302, 0.0299], 0),
            &results("setup_s", &[0.0600, 0.0605, 0.0598], 0),
        )
        .unwrap();
        assert_eq!(doubled.worse, 1);
    }
}
