//! `benchmark compare BASE.jsonl NEW.jsonl`: judges two sets of runs
//! by the rule of the choosing-metrics guide, section 8, with the
//! bounds in the BENCHMARK.json of the checkout it was built from.
//!
//! Input lines are the ones `--workload all` prints (name, seed and
//! result per workload). For every (workload, end-to-end metric) pair
//! it prints each side's median and quartiles and a verdict:
//!
//! * `improved` — NEW is better in at least 9/10 of the pairs (ties
//!   count for neither) and the medians differ by more than BASE's
//!   interquartile range;
//! * `unresolved` — otherwise, when BASE's spread (IQR / median) is
//!   wider than the metric's bound, unless every NEW run reads better
//!   than every BASE run;
//! * `worse` — NEW's median is worse than BASE's by more than the bound;
//! * `unchanged` — none of the above.
//!
//! Runs pair up by seed where both sides ran the same seeds, else in
//! file order. Exits 3 when any pair is `worse`.

use crate::stats::{median, quartiles};
use iiscope_wire::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The bounds the verdicts use.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// `(workload, metric)` → `(seed, value)` in file order.
type Runs = BTreeMap<(String, String), Vec<(i64, f64)>>;

fn read_json(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn end_to_end(bench: &Json) -> Result<Vec<Metric>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Metric {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in read_json(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics").and_then(Json::as_object),
        ) else {
            return Err(format!(
                "{path}:{}: not a `--workload all` line (needs workload and metrics)",
                i + 1
            ));
        };
        let seed = doc.get("seed").and_then(Json::as_i64).unwrap_or(-1);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(runs)
}

/// Pairs BASE and NEW runs: by seed when both sides hold the same seed
/// set, else by position.
fn pairs(base: &[(i64, f64)], new: &[(i64, f64)]) -> Vec<(f64, f64)> {
    let mut bs: Vec<i64> = base.iter().map(|r| r.0).collect();
    let mut ns: Vec<i64> = new.iter().map(|r| r.0).collect();
    bs.sort_unstable();
    ns.sort_unstable();
    if bs == ns {
        let mut b = base.to_vec();
        let mut n = new.to_vec();
        b.sort_by_key(|r| r.0);
        n.sort_by_key(|r| r.0);
        b.iter().zip(&n).map(|(x, y)| (x.1, y.1)).collect()
    } else {
        base.iter().zip(new).map(|(x, y)| (x.1, y.1)).collect()
    }
}

pub fn main(args: Vec<String>) -> ExitCode {
    match run(&args) {
        Ok(any_worse) => {
            if any_worse {
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("usage: benchmark compare BASE.jsonl NEW.jsonl".into());
    };
    let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = end_to_end(&bench)?;
    let base = read_runs(base_path)?;
    let new = read_runs(new_path)?;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = base.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    println!(
        "{:<20} {:<12} {:>32} {:>32} {:>8} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] spread",
        "new median [q1, q3] spread",
        "delta",
        "wins",
        "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        for m in &metrics {
            let key = (w.clone(), m.name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                println!("{w:<20} {:<12} missing on one side", m.name);
                continue;
            };
            let side = |runs: &[(i64, f64)]| {
                let v: Vec<f64> = runs.iter().map(|r| r.1).collect();
                let (q1, q3) = quartiles(&v);
                let med = median(&v);
                (v, med, q1, q3)
            };
            let (bv, bmed, bq1, bq3) = side(b);
            let (nv, nmed, nq1, nq3) = side(n);
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let ps = pairs(b, n);
            let wins = ps.iter().filter(|(x, y)| better(*y, *x)).count();
            let base_iqr = bq3 - bq1;
            let worse_by = if m.lower_is_better {
                (nmed - bmed) / bmed
            } else {
                (bmed - nmed) / bmed
            };
            let spread = base_iqr / bmed.abs().max(f64::MIN_POSITIVE);
            let all_better = nv.iter().all(|&y| bv.iter().all(|&x| better(y, x)));
            let verdict = if better(nmed, bmed)
                && wins * 10 >= ps.len() * 9
                && (nmed - bmed).abs() > base_iqr
            {
                "improved"
            } else if spread > m.bound && !all_better {
                "unresolved"
            } else if worse_by > m.bound {
                any_worse = true;
                "worse"
            } else {
                "unchanged"
            };
            let new_spread = (nq3 - nq1) / nmed.abs().max(f64::MIN_POSITIVE);
            println!(
                "{w:<20} {:<12} {:>12.4} [{:.4}, {:.4}] {:>5.1}% {:>12.4} [{:.4}, {:.4}] {:>5.1}% {:>+7.2}% {:>3}/{:<3} {:>6.1}%  {verdict}",
                m.name,
                bmed,
                bq1,
                bq3,
                spread * 100.0,
                nmed,
                nq1,
                nq3,
                new_spread * 100.0,
                (nmed - bmed) / bmed * 100.0,
                wins,
                ps.len(),
                m.bound * 100.0,
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_match_by_seed_when_sets_agree() {
        let base = [(2, 20.0), (1, 10.0)];
        let new = [(1, 11.0), (2, 21.0)];
        assert_eq!(pairs(&base, &new), vec![(10.0, 11.0), (20.0, 21.0)]);
        let other = [(3, 30.0), (4, 40.0)];
        assert_eq!(pairs(&base, &other), vec![(20.0, 30.0), (10.0, 40.0)]);
    }
}
