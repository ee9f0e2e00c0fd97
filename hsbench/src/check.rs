//! Correctness checks: order-insensitive result digests compared with a
//! `NoReuse` oracle, and the counter-stability record.

use std::collections::BTreeMap;
use std::path::Path;

use hashstash::cache::CacheStats;
use hashstash::exec::ExecMetrics;
use hashstash::types::Row;

/// FNV-1a, 64 bit: a digest that is the same in every process.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a reply body as sent, used to tell distinct replies apart
/// without parsing them inside the timed loop.
pub fn raw_digest(body: &str) -> u64 {
    fnv1a(body.as_bytes(), FNV_OFFSET)
}

/// A cell in the form the digest hashes: integers and text exactly,
/// floats at 13 significant digits. A float sum folded in another order
/// may still digest differently; [`Answer::matches`] then compares cells.
fn canonical_cell(cell: &str) -> String {
    if cell.parse::<i64>().is_ok() {
        return cell.to_string();
    }
    match cell.parse::<f64>() {
        Ok(f) if f.is_finite() => format!("{f:.12e}"),
        _ => cell.to_string(),
    }
}

/// Integers and text exactly, floats within a relative 1e-9.
fn cells_equal(a: &str, b: &str) -> bool {
    if let (Ok(x), Ok(y)) = (a.parse::<i64>(), b.parse::<i64>()) {
        return x == y;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// A query answer: the digest of its rows in canonical order, plus the
/// rows themselves for a tolerant comparison when digests differ.
#[derive(Debug, Clone)]
pub struct Answer {
    pub digest: u64,
    pub rows: usize,
    /// (canonical row, row as rendered), sorted by the canonical form.
    lines: Vec<(String, String)>,
}

impl Answer {
    /// From rows rendered as tab-separated text.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Answer {
        let mut lines: Vec<(String, String)> = lines
            .map(|raw| {
                let canon: Vec<String> = raw.split('\t').map(canonical_cell).collect();
                (canon.join("\t"), raw.to_string())
            })
            .collect();
        lines.sort();
        let mut digest = FNV_OFFSET;
        for (canon, _) in &lines {
            digest = fnv1a(canon.as_bytes(), digest);
            digest = fnv1a(b"\n", digest);
        }
        Answer {
            digest,
            rows: lines.len(),
            lines,
        }
    }

    /// From engine rows, rendered the way the server renders them.
    pub fn of_rows(rows: &[Row]) -> Answer {
        let text: Vec<String> = rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        Answer::from_lines(text.iter().map(String::as_str))
    }

    /// From a server `OK rows=…` reply: the lines after the header.
    pub fn of_reply(body: &str) -> Answer {
        Answer::from_lines(body.lines().skip(1))
    }

    /// Same digest, or — when float sums differ in their last digits — the
    /// same rows cell by cell (see `cells_equal`).
    pub fn matches(&self, oracle: &Answer) -> bool {
        if self.digest == oracle.digest {
            return true;
        }
        self.lines.len() == oracle.lines.len()
            && self
                .lines
                .iter()
                .zip(&oracle.lines)
                .all(|((_, a), (_, b))| {
                    let (ca, cb): (Vec<&str>, Vec<&str>) =
                        (a.split('\t').collect(), b.split('\t').collect());
                    ca.len() == cb.len() && ca.iter().zip(&cb).all(|(x, y)| cells_equal(x, y))
                })
    }
}

/// Every distinct answer each request produced, with how many times.
#[derive(Debug)]
pub struct Answers<K: Ord> {
    map: BTreeMap<K, Vec<(Answer, u64)>>,
}

impl<K: Ord + Clone + std::fmt::Debug> Answers<K> {
    pub fn new() -> Self {
        Answers {
            map: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, key: K, answer: Answer) {
        self.record_n(key, answer, 1);
    }

    /// Record `n` executions that all gave `answer`.
    pub fn record_n(&mut self, key: K, answer: Answer, n: u64) {
        let seen = self.map.entry(key).or_default();
        match seen.iter_mut().find(|(a, _)| a.digest == answer.digest) {
            Some((_, count)) => *count += n,
            None => seen.push((answer, n)),
        }
    }

    /// Compare every recorded answer with the oracle's answer for its key
    /// (computed once per key). Returns the number of wrong executions and
    /// a message per wrong answer.
    pub fn verify(
        &self,
        mut oracle: impl FnMut(&K) -> Result<Answer, String>,
    ) -> (u64, Vec<String>) {
        let mut wrong = 0;
        let mut why = Vec::new();
        for (key, seen) in &self.map {
            match oracle(key) {
                Ok(truth) => {
                    for (answer, n) in seen {
                        if !answer.matches(&truth) {
                            wrong += n;
                            why.push(format!(
                                "{key:?}: {} rows (digest {:016x}) where the NoReuse oracle \
                                 gives {} rows (digest {:016x})",
                                answer.rows, answer.digest, truth.rows, truth.digest
                            ));
                        }
                    }
                }
                Err(e) => {
                    wrong += seen.iter().map(|(_, n)| n).sum::<u64>();
                    why.push(format!("{key:?}: oracle failed: {e}"));
                }
            }
        }
        (wrong, why)
    }
}

/// The deterministic counters of a prefix of a single-session workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    pub fn capture(m: &ExecMetrics, c: &CacheStats) -> Counters {
        Counters(vec![
            ("exec.rows_scanned", m.rows_scanned),
            ("exec.index_rows", m.index_rows),
            ("exec.ht_inserts", m.ht_inserts),
            ("exec.ht_probes", m.ht_probes),
            ("exec.ht_updates", m.ht_updates),
            ("exec.rows_output", m.rows_output),
            ("exec.materialized_rows", m.materialized_rows),
            ("exec.reused_tables", m.reused_tables),
            ("exec.built_tables", m.built_tables),
            ("exec.batches_processed", m.batches_processed),
            ("exec.rows_filtered_vectorized", m.rows_filtered_vectorized),
            ("cache.publishes", c.publishes),
            ("cache.publish_dedups", c.publish_dedups),
            ("cache.reuses", c.reuses),
            ("cache.evictions", c.evictions),
            ("cache.candidate_lookups", c.candidate_lookups),
            ("cache.bytes", c.bytes as u64),
            ("cache.entries", c.entries as u64),
            ("cache.peak_bytes", c.peak_bytes as u64),
        ])
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// One message per counter that differs, ignoring `skip`.
    pub fn diff(&self, other: &Counters, skip: &[&str]) -> Vec<String> {
        self.0
            .iter()
            .zip(&other.0)
            .filter(|((name, a), (_, b))| a != b && !skip.contains(name))
            .map(|((name, a), (_, b))| format!("{name}: {a} vs {b}"))
            .collect()
    }

    /// The record: a `build <id>` line, then one line per counter.
    fn render(&self, build: u64) -> String {
        let mut out = format!("build {build:016x}\n");
        out.extend(self.0.iter().map(|(n, v)| format!("{n} {v}\n")));
        out
    }

    /// Compare with the counters an earlier run of the same binary
    /// (`build`, see [`build_id`]), workload and seed recorded at `path`.
    /// With no record, or one another build wrote, record these instead:
    /// a code change may move the counters, which is not drift. Returns
    /// one message per counter that drifted.
    pub fn check_against_record(&self, path: &Path, build: u64) -> std::io::Result<Vec<String>> {
        let now = self.render(build);
        let header = now.lines().next().unwrap_or_default();
        match std::fs::read_to_string(path) {
            Ok(before) if before.lines().next() == Some(header) => {
                let mut drift = Vec::new();
                if before != now {
                    for (b, n) in before.lines().zip(now.lines()) {
                        if b != n {
                            drift.push(format!("earlier run `{b}`, this run `{n}`"));
                        }
                    }
                    if drift.is_empty() {
                        drift.push("counter record has a different layout".to_string());
                    }
                }
                Ok(drift)
            }
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(path, now)?;
                Ok(Vec::new())
            }
        }
    }
}

/// Identity of the running binary: the digest of its bytes. Counter
/// records are compared only between runs of the same build.
pub fn build_id() -> std::io::Result<u64> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    Ok(fnv1a(&exe, FNV_OFFSET))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_float_noise() {
        let a = Answer::from_lines(["1\t250", "2\t0.1"].into_iter());
        let b = Answer::from_lines(["2\t0.1", "1\t250"].into_iter());
        assert_eq!(a.digest, b.digest);
        let c = Answer::from_lines(["2\t0.10000000000000002", "1\t249.99999999999997"].into_iter());
        assert!(a.matches(&c));
    }

    #[test]
    fn different_answers_do_not_match() {
        let a = Answer::from_lines(["1\t250"].into_iter());
        let b = Answer::from_lines(["1\t251"].into_iter());
        let c = Answer::from_lines(["1\t250", "1\t250"].into_iter());
        assert!(!a.matches(&b));
        assert!(!a.matches(&c));
    }

    #[test]
    fn last_digit_differences_do_not_match() {
        // Integers that differ only in their last digit are different
        // answers, at any size.
        let a = Answer::from_lines(["7\t12345678"].into_iter());
        let b = Answer::from_lines(["7\t12345679"].into_iter());
        assert!(!a.matches(&b));
        let a = Answer::from_lines(["7\t9876543210123"].into_iter());
        let b = Answer::from_lines(["7\t9876543210124"].into_iter());
        assert!(!a.matches(&b));
        // A sum of prices around 1e10 missing one cheap row (~900) is wrong.
        let c = Answer::from_lines(["7\t9876543210.25"].into_iter());
        let d = Answer::from_lines(["7\t9876542309.25"].into_iter());
        assert!(!c.matches(&d));
        // The same sum folded in another order still matches.
        let f = Answer::from_lines(["7\t9876543210.250001"].into_iter());
        assert!(c.matches(&f));
    }

    #[test]
    fn counter_record_is_per_build() {
        let dir = std::env::temp_dir().join(format!("hsbench-check-{}", std::process::id()));
        let path = dir.join("rec.txt");
        let c = |v| Counters(vec![("exec.ht_probes", v)]);
        assert!(c(5).check_against_record(&path, 1).unwrap().is_empty());
        assert!(c(5).check_against_record(&path, 1).unwrap().is_empty());
        assert_eq!(c(6).check_against_record(&path, 1).unwrap().len(), 1);
        // Another build replaces the record instead of reporting drift.
        assert!(c(6).check_against_record(&path, 2).unwrap().is_empty());
        assert!(c(6).check_against_record(&path, 2).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reply_body_skips_header() {
        let a = Answer::of_reply("OK rows=2 wall_us=5 reused=0\n3\tx\n4\ty");
        let b = Answer::from_lines(["4\ty", "3\tx"].into_iter());
        assert_eq!(a.rows, 2);
        assert!(a.matches(&b));
    }
}
