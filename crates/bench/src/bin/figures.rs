//! `figures` — renders the paper's figures as self-contained HTML/SVG from
//! the CSVs that `reproduce` writes, and the repo's own benchmark lineage
//! as trajectory charts.
//!
//! ```text
//! figures [--in results] [--out results/figures]
//! figures --bench-dir . [--snapshot run.jsonl] [--out results/figures]
//! ```
//!
//! Default mode produces: `fig3.html` (scan-scaling lines), `fig5.html`
//! (elimination speedup scatter), `fig6.html` (diverging memory-change
//! bars), `fig7.html` / `fig8.html` (speedup dot plots, log axis). Each
//! page carries a hover tooltip layer and a data-table view.
//!
//! `--bench-dir` switches to the self-documenting bench charts: it reads
//! every checked-in `BENCH_*.json` (the PR 3 → 6 → 8 → 9 lineage), renders
//! `bench_trajectory.html` — per-bench speedup curves across PRs and the
//! streaming patch-vs-recompute panel — and prints the same trajectories as terminal sparklines. With
//! `--snapshot <run.jsonl>` (a `--snapshot-stream` capture) it adds a
//! per-kernel occupancy heatmap over the run's snapshot intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use serde_json::Value;

// ---------------------------------------------------------------- CSV in --

/// Minimal parser for the harness's own CSV output (quoted cells with
/// commas supported; no embedded newlines).
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut cells = Vec::new();
            let mut cur = String::new();
            let mut in_quotes = false;
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '"' if in_quotes && chars.peek() == Some(&'"') => {
                        cur.push('"');
                        chars.next();
                    }
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cells.push(std::mem::take(&mut cur)),
                    other => cur.push(other),
                }
            }
            cells.push(cur);
            cells
        })
        .collect()
}

fn load(dir: &Path, name: &str) -> Option<Vec<Vec<String>>> {
    let path = dir.join(format!("{name}.csv"));
    match fs::read_to_string(&path) {
        Ok(text) => Some(parse_csv(&text)),
        Err(_) => {
            eprintln!(
                "skipping {name}: {} not found (run `reproduce {name}` first)",
                path.display()
            );
            None
        }
    }
}

// ------------------------------------------------------------- scaffold --

/// Palette roles (reference instance from the design-system skill; swap for
/// a brand by editing these values only). Light & dark are both selected
/// steps, validated for their surfaces.
const STYLE: &str = r#"
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --grid: #e7e6e2;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #8a887f;
  --series-1: #2a78d6; --series-2: #1baf7a;
  --div-neg: #2a78d6; --div-pos: #e34948; --div-mid: #f0efec;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  max-width: 880px; margin: 2rem auto; padding: 0 1rem;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --grid: #32312f;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #8f8d83;
    --series-1: #3987e5; --series-2: #199e70;
    --div-neg: #3987e5; --div-pos: #e66767; --div-mid: #383835;
  }
}
h1 { font-size: 1.15rem; font-weight: 600; margin-bottom: 0.2rem; }
p.sub { color: var(--text-secondary); font-size: 0.85rem; margin-top: 0; }
svg text { font-family: inherit; }
.axis text { fill: var(--text-secondary); font-size: 11px; }
.axis line, .grid line { stroke: var(--grid); stroke-width: 1; }
.label { fill: var(--text-secondary); font-size: 11px; }
.dlabel { fill: var(--text-primary); font-size: 11px; font-weight: 600; }
.legend { display: flex; gap: 1.2rem; font-size: 0.85rem; color: var(--text-secondary); margin: 0.4rem 0; }
.legend .key { display: inline-block; width: 14px; height: 3px; border-radius: 2px; vertical-align: middle; margin-right: 5px; }
table { border-collapse: collapse; font-size: 0.8rem; margin-top: 1.2rem; width: 100%; }
th, td { text-align: right; padding: 3px 10px; border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 600; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--text-primary); color: var(--surface-1);
  padding: 4px 8px; border-radius: 4px; font-size: 0.78rem; white-space: nowrap;
}
"#;

const TOOLTIP_JS: &str = r#"
const tip = document.getElementById('tooltip');
for (const el of document.querySelectorAll('[data-tip]')) {
  el.addEventListener('mousemove', (e) => {
    tip.textContent = el.dataset.tip;
    tip.style.display = 'block';
    tip.style.left = (e.clientX + 12) + 'px';
    tip.style.top = (e.clientY - 10) + 'px';
  });
  el.addEventListener('mouseleave', () => { tip.style.display = 'none'; });
}
"#;

fn page(title: &str, subtitle: &str, legend: &str, svg: &str, table: &str) -> String {
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>{title}</title>\n\
         <style>{STYLE}</style></head>\n<body class=\"viz-root\">\n\
         <h1>{title}</h1>\n<p class=\"sub\">{subtitle}</p>\n{legend}\n{svg}\n\
         <div id=\"tooltip\"></div>\n{table}\n<script>{TOOLTIP_JS}</script>\n</body></html>\n"
    )
}

fn html_table(rows: &[Vec<String>]) -> String {
    let mut out = String::from("<table>\n<tr>");
    for h in &rows[0] {
        let _ = write!(out, "<th>{h}</th>");
    }
    out.push_str("</tr>\n");
    for row in &rows[1..] {
        out.push_str("<tr>");
        for c in row {
            let _ = write!(out, "<td>{c}</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
    out
}

fn legend_html(entries: &[(&str, &str)]) -> String {
    let mut out = String::from("<div class=\"legend\">");
    for (var, name) in entries {
        let _ = write!(
            out,
            "<span><span class=\"key\" style=\"background: var({var})\"></span>{name}</span>"
        );
    }
    out.push_str("</div>");
    out
}

// ------------------------------------------------------------ fig 3 -------

const W: f64 = 820.0;
const H: f64 = 420.0;
const ML: f64 = 64.0; // margins
const MR: f64 = 120.0;
const MT: f64 = 16.0;
const MB: f64 = 44.0;

fn fig3(dir: &Path, out: &Path) {
    let Some(rows) = load(dir, "fig3") else {
        return;
    };
    let data: Vec<(f64, f64, f64)> = rows[1..]
        .iter()
        .filter_map(|r| Some((r[0].parse().ok()?, r[1].parse().ok()?, r[2].parse().ok()?)))
        .collect();
    if data.is_empty() {
        return;
    }
    let (x0, x1) = (data[0].0.log2(), data.last().unwrap().0.log2());
    let ys: Vec<f64> = data.iter().flat_map(|d| [d.1, d.2]).collect();
    let (y0, y1) = (
        ys.iter().cloned().fold(f64::MAX, f64::min).log10().floor(),
        ys.iter().cloned().fold(f64::MIN, f64::max).log10().ceil(),
    );
    let px = |n: f64| ML + (n.log2() - x0) / (x1 - x0) * (W - ML - MR);
    let py = |ms: f64| H - MB - (ms.log10() - y0) / (y1 - y0) * (H - MT - MB);

    let mut svg =
        format!("<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"selection scan scaling\">");
    // Grid + y ticks at decades.
    let mut d = y0;
    while d <= y1 + 1e-9 {
        let y = py(10f64.powf(d));
        let _ =
            write!(
            svg,
            "<g class=\"grid\"><line x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/></g>\
             <text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{} ms</text>",
            W - MR,
            ML - 8.0,
            y + 4.0,
            if d >= 0.0 { format!("{:.0}", 10f64.powf(d)) } else { format!("{}", 10f64.powf(d)) }
        );
        d += 1.0;
    }
    // X ticks at each point (powers of two).
    for (n, _, _) in &data {
        let x = px(*n);
        let _ = write!(
            svg,
            "<text class=\"label\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">2^{:.0}</text>",
            H - MB + 18.0,
            n.log2()
        );
    }
    let _ = write!(
        svg,
        "<text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">RRR sets N</text>",
        (ML + W - MR) / 2.0,
        H - 6.0
    );
    // Two series: thread (slot 1), warp (slot 2).
    for (idx, (var, name)) in [("--series-1", "thread-based"), ("--series-2", "warp-based")]
        .iter()
        .enumerate()
    {
        let path: String = data
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let v = if idx == 0 { p.1 } else { p.2 };
                format!(
                    "{}{:.1},{:.1}",
                    if i == 0 { "M" } else { "L" },
                    px(p.0),
                    py(v)
                )
            })
            .collect();
        let _ = write!(
            svg,
            "<path d=\"{path}\" fill=\"none\" stroke=\"var({var})\" stroke-width=\"2\" stroke-linejoin=\"round\" stroke-linecap=\"round\"/>"
        );
        for p in &data {
            let v = if idx == 0 { p.1 } else { p.2 };
            let _ = write!(
                svg,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"var({var})\" stroke=\"var(--surface-1)\" stroke-width=\"2\" data-tip=\"{name}, N = {:.0}: {v} ms\"/>",
                px(p.0),
                py(v),
                p.0,
            );
        }
        // Direct label at the line end.
        let last = data.last().unwrap();
        let v = if idx == 0 { last.1 } else { last.2 };
        let _ = write!(
            svg,
            "<text class=\"dlabel\" x=\"{:.1}\" y=\"{:.1}\">{name}</text>",
            px(last.0) + 10.0,
            py(v) + 4.0
        );
    }
    svg.push_str("</svg>");
    let html = page(
        "Figure 3 — selection scan scalability (k = 100)",
        "Simulated device time of the thread-per-set vs warp-per-set scans as the RRR-set count grows; log-log axes.",
        &legend_html(&[("--series-1", "thread-based"), ("--series-2", "warp-based")]),
        &svg,
        &html_table(&rows),
    );
    fs::write(out.join("fig3.html"), html).expect("write fig3");
    println!("wrote {}", out.join("fig3.html").display());
}

// ------------------------------------------------------------ fig 5 -------

fn fig5(dir: &Path, out: &Path) {
    let Some(rows) = load(dir, "fig56") else {
        return;
    };
    // columns: Dataset, singleton %, speedup, ...
    let pts: Vec<(String, f64, f64)> = rows[1..]
        .iter()
        .filter_map(|r| Some((r[0].clone(), r[1].parse().ok()?, r[2].parse().ok()?)))
        .collect();
    if pts.is_empty() {
        return;
    }
    let ymax = pts.iter().map(|p| p.2).fold(1.0f64, f64::max) * 1.15;
    let px = |s: f64| ML + s / 100.0 * (W - ML - MR);
    let py = |v: f64| H - MB - v / ymax * (H - MT - MB);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"speedup vs singleton fraction\">"
    );
    for t in 0..=5 {
        let v = ymax / 5.0 * t as f64;
        let y = py(v);
        let _ = write!(
            svg,
            "<g class=\"grid\"><line x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/></g>\
             <text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{v:.1}x</text>",
            W - MR,
            ML - 8.0,
            y + 4.0
        );
    }
    for t in (0..=100).step_by(20) {
        let x = px(t as f64);
        let _ = write!(
            svg,
            "<text class=\"label\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{t}%</text>",
            H - MB + 18.0
        );
    }
    let _ = write!(
        svg,
        "<text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">sets containing only the source vertex</text>",
        (ML + W - MR) / 2.0,
        H - 6.0
    );
    // Baseline at 1x (no speedup).
    let y1 = py(1.0);
    let _ = write!(
        svg,
        "<line x1=\"{ML}\" y1=\"{y1:.1}\" x2=\"{:.1}\" y2=\"{y1:.1}\" stroke=\"var(--text-muted)\" stroke-width=\"1\"/>",
        W - MR
    );
    for (name, sx, sy) in &pts {
        let (x, y) = (px(*sx), py(*sy));
        let _ = write!(
            svg,
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"5\" fill=\"var(--series-1)\" stroke=\"var(--surface-1)\" stroke-width=\"2\" data-tip=\"{name}: {sy}x speedup at {sx}% singletons\"/>\
             <text class=\"label\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{name}</text>",
            y - 9.0
        );
    }
    svg.push_str("</svg>");
    let html = page(
        "Figure 5 — source-elimination speedup vs singleton fraction",
        "Each dot is one network: eIM time without / with the section-3.4 heuristic against the share of samples that were singleton sets.",
        "",
        &svg,
        &html_table(&rows),
    );
    fs::write(out.join("fig5.html"), html).expect("write fig5");
    println!("wrote {}", out.join("fig5.html").display());
}

// ------------------------------------------------------------ fig 6 -------

fn fig6(dir: &Path, out: &Path) {
    let Some(rows) = load(dir, "fig56") else {
        return;
    };
    // column 5: R change %
    let pts: Vec<(String, f64)> = rows[1..]
        .iter()
        .filter_map(|r| Some((r[0].clone(), r[5].parse().ok()?)))
        .collect();
    if pts.is_empty() {
        return;
    }
    let lim = pts.iter().map(|p| p.1.abs()).fold(10.0f64, f64::max) * 1.1;
    let n = pts.len();
    let row_h = 26.0f64;
    let h = MT + MB + row_h * n as f64;
    let px = |v: f64| ML + 60.0 + (v + lim) / (2.0 * lim) * (W - ML - MR - 60.0);
    let mut svg = format!("<svg viewBox=\"0 0 {W} {h}\" role=\"img\" aria-label=\"memory change from source elimination\">");
    for t in [-lim, -lim / 2.0, 0.0, lim / 2.0, lim] {
        let x = px(t);
        let _ = write!(
            svg,
            "<g class=\"grid\"><line x1=\"{x:.1}\" y1=\"{MT}\" x2=\"{x:.1}\" y2=\"{:.1}\"/></g>\
             <text class=\"label\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{t:+.0}%</text>",
            h - MB,
            h - MB + 18.0
        );
    }
    let zero = px(0.0);
    let _ = write!(
        svg,
        "<line x1=\"{zero:.1}\" y1=\"{MT}\" x2=\"{zero:.1}\" y2=\"{:.1}\" stroke=\"var(--text-muted)\" stroke-width=\"1\"/>",
        h - MB
    );
    for (i, (name, v)) in pts.iter().enumerate() {
        let y = MT + row_h * i as f64 + 2.0;
        let bar_h = (row_h - 4.0).min(22.0);
        let (x, wdt) = if *v < 0.0 {
            (px(*v), zero - px(*v))
        } else {
            (zero, px(*v) - zero)
        };
        let var = if *v < 0.0 { "--div-neg" } else { "--div-pos" };
        // 4px rounded data-end, square at the zero baseline.
        let (rx_path, label_x, anchor) = if *v < 0.0 {
            (
                format!(
                    "M{z:.1},{y:.1} H{x2:.1} a4,4 0 0 0 -4,4 V{yb:.1} a4,4 0 0 0 4,4 H{z:.1} Z",
                    z = zero,
                    x2 = x + 4.0,
                    y = y,
                    yb = y + bar_h - 4.0
                ),
                x - 6.0,
                "end",
            )
        } else {
            (
                format!(
                    "M{z:.1},{y:.1} H{x2:.1} a4,4 0 0 1 4,4 V{yb:.1} a4,4 0 0 1 -4,4 H{z:.1} Z",
                    z = zero,
                    x2 = zero + wdt - 4.0,
                    y = y,
                    yb = y + bar_h - 4.0
                ),
                x + wdt + 6.0,
                "start",
            )
        };
        let _ = write!(
            svg,
            "<path d=\"{rx_path}\" fill=\"var({var})\" data-tip=\"{name}: {v:+.1}% R storage\"/>\
             <text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{name}</text>\
             <text class=\"dlabel\" x=\"{label_x:.1}\" y=\"{:.1}\" text-anchor=\"{anchor}\">{v:+.1}%</text>",
            ML + 52.0,
            y + bar_h / 2.0 + 4.0,
            y + bar_h / 2.0 + 4.0
        );
    }
    svg.push_str("</svg>");
    let html = page(
        "Figure 6 — change in RRR storage with source elimination",
        "Percent change in the bytes of R when source vertices are removed; negative = memory saved.",
        "",
        &svg,
        &html_table(&rows),
    );
    fs::write(out.join("fig6.html"), html).expect("write fig6");
    println!("wrote {}", out.join("fig6.html").display());
}

// --------------------------------------------------------- fig 7 / 8 ------

fn speedup_dotplot(dir: &Path, out: &Path, name: &str, title: &str) {
    let Some(rows) = load(dir, name) else { return };
    // columns: Dataset, eIM, gIM, cuRipples, vs gIM, vs cuRipples
    let pts: Vec<(String, Option<f64>, Option<f64>)> = rows[1..]
        .iter()
        .map(|r| (r[0].clone(), r[4].parse().ok(), r[5].parse().ok()))
        .collect();
    if pts.is_empty() {
        return;
    }
    let max = pts
        .iter()
        .flat_map(|p| [p.1, p.2])
        .flatten()
        .fold(10.0f64, f64::max);
    let (l0, l1) = (-0.2f64, max.log10().ceil());
    let n = pts.len();
    let row_h = 26.0;
    let h = MT + MB + row_h * n as f64;
    let px = |v: f64| ML + 40.0 + (v.log10() - l0) / (l1 - l0) * (W - ML - MR - 40.0);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {h}\" role=\"img\" aria-label=\"speedups over baselines\">"
    );
    let mut d = 0.0;
    while d <= l1 + 1e-9 {
        let x = px(10f64.powf(d));
        let _ = write!(
            svg,
            "<g class=\"grid\"><line x1=\"{x:.1}\" y1=\"{MT}\" x2=\"{x:.1}\" y2=\"{:.1}\"/></g>\
             <text class=\"label\" x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{:.0}x</text>",
            h - MB,
            h - MB + 18.0,
            10f64.powf(d)
        );
        d += 1.0;
    }
    let one = px(1.0);
    let _ = write!(
        svg,
        "<line x1=\"{one:.1}\" y1=\"{MT}\" x2=\"{one:.1}\" y2=\"{:.1}\" stroke=\"var(--text-muted)\" stroke-width=\"1\"/>",
        h - MB
    );
    for (i, (ds, gim, cur)) in pts.iter().enumerate() {
        let y = MT + row_h * i as f64 + row_h / 2.0;
        let _ = write!(
            svg,
            "<text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{ds}</text>",
            ML + 32.0,
            y + 4.0
        );
        let mut dot = |v: Option<f64>, var: &str, series: &str| match v {
            Some(v) => {
                let _ = write!(
                        svg,
                        "<circle cx=\"{:.1}\" cy=\"{y:.1}\" r=\"5\" fill=\"var({var})\" stroke=\"var(--surface-1)\" stroke-width=\"2\" data-tip=\"{ds}: {v}x vs {series}\"/>",
                        px(v)
                    );
            }
            None => {
                let _ = write!(
                        svg,
                        "<text class=\"label\" x=\"{:.1}\" y=\"{y:.1}\" data-tip=\"{ds}: {series} out of memory\">OOM ({series})</text>",
                        W - MR + 8.0
                    );
            }
        };
        dot(*gim, "--series-1", "gIM");
        dot(*cur, "--series-2", "cuRipples");
    }
    svg.push_str("</svg>");
    let html = page(
        title,
        "eIM's speedup over each baseline, per network (log scale; the 1x line marks parity). Dots to the right of 1x mean eIM is faster.",
        &legend_html(&[("--series-1", "vs gIM"), ("--series-2", "vs cuRipples")]),
        &svg,
        &html_table(&rows),
    );
    fs::write(out.join(format!("{name}.html")), html).expect("write figure");
    println!("wrote {}", out.join(format!("{name}.html")).display());
}

// ----------------------------------------------- bench trajectory --------

const SPARK_BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One-line unicode sparkline scaled to the series' own max.
fn spark(vals: &[f64]) -> String {
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    vals.iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                '·'
            } else {
                SPARK_BARS[((v / max) * 7.0).round().min(7.0) as usize]
            }
        })
        .collect()
}

/// Loads every `BENCH_*.json` in `dir`, labelled by the part between
/// `BENCH_` and `.json`, in PR-lineage order (numeric `prN` first, then
/// the rest lexicographically).
fn load_bench_lineage(dir: &Path) -> Vec<(String, Value)> {
    let mut files: Vec<(u64, String, Value)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read bench dir {}: {e}", dir.display());
            return Vec::new();
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(label) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(text) = fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(value) = serde_json::from_str::<Value>(&text) else {
            eprintln!("skipping {name}: not valid JSON");
            continue;
        };
        let rank = label
            .strip_prefix("pr")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(u64::MAX);
        files.push((rank, label.to_string(), value));
    }
    files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    files.into_iter().map(|(_, l, v)| (l, v)).collect()
}

/// Per-bench speedup curves across the PR lineage (log y; each point is
/// that PR's before→after speedup for one bench).
fn speedup_curves_svg(perf: &[(String, &Value)], sparks: &mut String) -> String {
    let mut series: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    for (i, (_, v)) in perf.iter().enumerate() {
        if let Some(sp) = v.get("speedup").and_then(Value::as_object) {
            for (bench, s) in sp.iter() {
                if let Some(s) = s.as_f64() {
                    series.entry(bench.clone()).or_default().push((i, s));
                }
            }
        }
    }
    if series.is_empty() {
        return String::from("<p class=\"sub\">(no perf lineage with speedups found)</p>");
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for pts in series.values() {
        for &(_, s) in pts {
            lo = lo.min(s);
            hi = hi.max(s);
        }
    }
    let (l0, l1) = ((lo.log10() - 0.15).min(-0.1), (hi.log10() + 0.15).max(0.1));
    let n = perf.len().max(2);
    let px = |i: usize| ML + i as f64 / (n - 1) as f64 * (W - ML - MR);
    let py = |s: f64| MT + (l1 - s.log10()) / (l1 - l0) * (H - MT - MB);
    let mut svg =
        format!("<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"speedup per PR\">");
    for d in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        if d.log10() < l0 || d.log10() > l1 {
            continue;
        }
        let y = py(d);
        let _ = write!(
            svg,
            "<g class=\"grid\"><line x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/></g>\
             <text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{d}x</text>",
            W - MR,
            ML - 8.0,
            y + 4.0
        );
    }
    for (i, (label, _)) in perf.iter().enumerate() {
        let _ = write!(
            svg,
            "<text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{label}</text>",
            px(i),
            H - MB + 18.0
        );
    }
    let palette = ["--series-1", "--series-2", "--div-pos", "--text-muted"];
    for (si, (bench, pts)) in series.iter().enumerate() {
        let var = palette[si % palette.len()];
        let path: Vec<String> = pts
            .iter()
            .map(|&(i, s)| format!("{:.1},{:.1}", px(i), py(s)))
            .collect();
        let _ = write!(
            svg,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"var({var})\" stroke-width=\"2\"/>",
            path.join(" ")
        );
        for &(i, s) in pts {
            let _ = write!(
                svg,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"var({var})\" \
                 data-tip=\"{bench} @ {}: {s:.2}x\"/>",
                px(i),
                py(s),
                perf[i].0
            );
        }
        if let Some(&(i, s)) = pts.last() {
            let _ = write!(
                svg,
                "<text class=\"dlabel\" x=\"{:.1}\" y=\"{:.1}\">{bench}</text>",
                px(i) + 10.0,
                py(s) + 4.0
            );
        }
        let vals: Vec<f64> = pts.iter().map(|&(_, s)| s).collect();
        let labels: Vec<&str> = pts.iter().map(|&(i, _)| perf[i].0.as_str()).collect();
        let _ = writeln!(
            sparks,
            "speedup {bench:<20} {}  ({})",
            spark(&vals),
            labels
                .iter()
                .zip(&vals)
                .map(|(l, v)| format!("{l} {v:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Streaming panel: per-batch patch-vs-recompute wall times and the
/// invalidation fraction, from the `eim-bench updates` lineage files.
fn updates_svg(lineage: &[(String, Value)], sparks: &mut String) -> String {
    let Some((label, v)) = lineage
        .iter()
        .find(|(_, v)| v.get("schema").and_then(Value::as_str) == Some("eim-bench-updates-v1"))
    else {
        return String::from("<p class=\"sub\">(no updates lineage found)</p>");
    };
    let Some(batches) = v.get("checkpoints").and_then(Value::as_array) else {
        return String::from("<p class=\"sub\">(updates lineage has no checkpoints)</p>");
    };
    let rows: Vec<(u64, f64, f64, f64)> = batches
        .iter()
        .map(|b| {
            (
                b.get("batch").and_then(Value::as_u64).unwrap_or(0),
                b.get("patch_ms").and_then(Value::as_f64).unwrap_or(0.0),
                b.get("recompute_ms").and_then(Value::as_f64).unwrap_or(0.0),
                b.get("resampled_fraction")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            )
        })
        .collect();
    if rows.is_empty() {
        return String::from("<p class=\"sub\">(updates lineage has no batches)</p>");
    }
    let speedup = v
        .get("patch_speedup")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let max_ms = rows.iter().map(|r| r.1.max(r.2)).fold(1e-9f64, f64::max);
    let group_w = (W - ML - MR) / rows.len() as f64;
    let bh = |ms: f64| ms / max_ms * (H - MT - MB);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" \
         aria-label=\"patch vs recompute per update batch\">"
    );
    for (i, (batch, patch, recompute, fraction)) in rows.iter().enumerate() {
        let x = ML + group_w * i as f64;
        let (hp, hr) = (bh(*patch), bh(*recompute));
        let _ = write!(
            svg,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{hp:.1}\" \
             fill=\"var(--series-2)\" data-tip=\"batch {batch}: patch {patch:.2} ms \
             ({:.1}% resampled)\"/>\
             <rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{hr:.1}\" \
             fill=\"var(--series-1)\" data-tip=\"batch {batch}: cold recompute \
             {recompute:.2} ms\"/>\
             <text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">b{batch}</text>",
            x + group_w * 0.12,
            H - MB - hp,
            group_w * 0.32,
            100.0 * fraction,
            x + group_w * 0.52,
            H - MB - hr,
            group_w * 0.32,
            x + group_w * 0.5,
            H - MB + 18.0
        );
    }
    let _ = write!(
        svg,
        "<text class=\"dlabel\" x=\"{ML}\" y=\"{:.1}\">{label}: patch beats recompute \
         {speedup:.2}x overall</text>",
        MT + 14.0
    );
    svg.push_str("</svg>");
    let _ = writeln!(
        sparks,
        "updates {label:<20} {}  (resampled fraction per batch; overall {speedup:.2}x)",
        spark(&rows.iter().map(|r| r.3).collect::<Vec<_>>())
    );
    svg
}

/// Per-kernel occupancy heatmap over a snapshot stream's intervals. Each
/// record's kernel deltas carry the interval's busy/capacity cycles, so a
/// cell is the occupancy of that kernel during that snapshot window.
fn occupancy_heatmap_svg(path: &Path, sparks: &mut String) -> String {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read snapshot {}: {e}", path.display());
            return String::new();
        }
    };
    // kernel key -> (record index -> occupancy %)
    let mut cells: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
    let mut ticks: Vec<u64> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(rec) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if rec.get("schema").is_some() {
            continue; // header
        }
        let col = ticks.len();
        ticks.push(rec.get("ts_us").and_then(Value::as_u64).unwrap_or(0));
        let Some(kernels) = rec.get("kernels").and_then(Value::as_object) else {
            continue;
        };
        for (key, k) in kernels.iter() {
            let busy = k
                .get("occ_busy_cycles")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let cap = k
                .get("occ_capacity_cycles")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if cap > 0.0 {
                cells
                    .entry(key.clone())
                    .or_default()
                    .insert(col, 100.0 * busy / cap);
            }
        }
    }
    if cells.is_empty() {
        return String::from("<p class=\"sub\">(snapshot stream has no kernel intervals)</p>");
    }
    let cols = ticks.len();
    let cell_w = ((W - ML - MR - 140.0) / cols as f64).min(48.0);
    let row_h = 22.0;
    let h = MT + MB + row_h * cells.len() as f64;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {h:.0}\" role=\"img\" \
         aria-label=\"kernel occupancy per snapshot interval\">"
    );
    for (i, (key, row)) in cells.iter().enumerate() {
        let y = MT + row_h * i as f64;
        // Keys are "engine|device|kernel"; keep the device so multi-GPU
        // rows of the same kernel stay distinguishable.
        let mut parts = key.splitn(3, '|');
        let (_, dev, kname) = (parts.next(), parts.next(), parts.next());
        let short = match (dev, kname) {
            (Some(d), Some(k)) => format!("d{d} {k}"),
            _ => key.clone(),
        };
        let _ = write!(
            svg,
            "<text class=\"label\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{short}</text>",
            ML + 132.0,
            y + row_h - 7.0
        );
        for (col, occ) in row {
            let x = ML + 140.0 + cell_w * *col as f64;
            let _ = write!(
                svg,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"var(--series-1)\" fill-opacity=\"{:.3}\" \
                 data-tip=\"{key} @ t={} µs: {occ:.1}% occupancy\"/>",
                cell_w - 2.0,
                row_h - 2.0,
                (occ / 100.0).clamp(0.04, 1.0),
                ticks[*col]
            );
        }
        let vals: Vec<f64> = (0..cols)
            .map(|c| row.get(&c).copied().unwrap_or(0.0))
            .collect();
        let _ = writeln!(sparks, "occupancy {short:<18} {}", spark(&vals));
    }
    svg.push_str("</svg>");
    svg
}

/// The `--bench-dir` entry point: one self-contained page with every bench
/// trajectory, plus the terminal sparkline digest on stdout.
fn bench_charts(bench_dir: &Path, snapshot: Option<&Path>, out: &Path) {
    let lineage = load_bench_lineage(bench_dir);
    if lineage.is_empty() {
        eprintln!("no BENCH_*.json found in {}", bench_dir.display());
        return;
    }
    let perf: Vec<(String, &Value)> = lineage
        .iter()
        .filter(|(_, v)| {
            v.get("schema")
                .and_then(Value::as_str)
                .is_some_and(|s| s.starts_with("eim-bench-perf"))
                && v.get("speedup").is_some()
        })
        .map(|(l, v)| (l.clone(), v))
        .collect();
    let mut sparks = String::new();
    let mut body = String::new();
    body.push_str("<h1>Speedup trajectory across PRs</h1>\n");
    body.push_str(&speedup_curves_svg(&perf, &mut sparks));
    body.push_str("\n<h1>Streaming updates: patch vs recompute</h1>\n");
    body.push_str(&updates_svg(&lineage, &mut sparks));
    if let Some(snap) = snapshot {
        body.push_str("\n<h1>Kernel occupancy per snapshot interval</h1>\n");
        body.push_str(&occupancy_heatmap_svg(snap, &mut sparks));
    }
    let files: Vec<&str> = lineage.iter().map(|(l, _)| l.as_str()).collect();
    let html = page(
        "eIM bench trajectory",
        &format!(
            "Self-documenting charts from the checked-in BENCH_*.json lineage ({}).",
            files.join(", ")
        ),
        &legend_html(&[("--series-1", "recompute"), ("--series-2", "patch")]),
        &body,
        "",
    );
    let path = out.join("bench_trajectory.html");
    fs::write(&path, html).expect("write bench trajectory");
    println!("wrote {}", path.display());
    print!("{sparks}");
}

fn main() {
    let mut dir = PathBuf::from("results");
    let mut out: Option<PathBuf> = None;
    let mut bench_dir: Option<PathBuf> = None;
    let mut snapshot: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--in" => dir = PathBuf::from(args.next().expect("--in value")),
            "--out" => out = Some(PathBuf::from(args.next().expect("--out value"))),
            "--bench-dir" => {
                bench_dir = Some(PathBuf::from(args.next().expect("--bench-dir value")))
            }
            "--snapshot" => snapshot = Some(PathBuf::from(args.next().expect("--snapshot value"))),
            other => panic!("unknown option {other}"),
        }
    }
    let out = out.unwrap_or_else(|| dir.join("figures"));
    fs::create_dir_all(&out).expect("create output dir");
    if let Some(bench_dir) = bench_dir {
        bench_charts(&bench_dir, snapshot.as_deref(), &out);
        return;
    }
    fig3(&dir, &out);
    fig5(&dir, &out);
    fig6(&dir, &out);
    speedup_dotplot(
        &dir,
        &out,
        "fig7",
        "Figure 7 — eIM speedups under IC (k = 50, eps = 0.05)",
    );
    speedup_dotplot(
        &dir,
        &out,
        "fig8",
        "Figure 8 — eIM speedups under LT (k = 50, eps = 0.05)",
    );
}
