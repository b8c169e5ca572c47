//! Standard Workload Format (SWF) parsing and writing.
//!
//! The Parallel Workloads Archive traces used by the paper are distributed in
//! SWF: one line per job with 18 whitespace-separated integer fields, plus
//! header comments introduced by `;`.  This module provides a tolerant parser
//! (missing fields default to `-1`, as the format specifies), a writer, and a
//! converter into the workspace's [`Job`] type so that real traces can be
//! replayed through the federation unmodified.
//!
//! Field order (0-based), per the archive specification:
//! `0` job number, `1` submit time, `2` wait time, `3` run time,
//! `4` allocated processors, `5` average CPU time, `6` used memory,
//! `7` requested processors, `8` requested time, `9` requested memory,
//! `10` status, `11` user id, `12` group id, `13` executable,
//! `14` queue, `15` partition, `16` preceding job, `17` think time.

use std::fmt;
use std::io::BufRead;

use crate::job::{Job, JobId, UserId};

/// One SWF record (a single job) with the fields the simulator consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfRecord {
    /// Job number (field 0).
    pub job_number: i64,
    /// Submit time in seconds from the trace start (field 1).
    pub submit_time: f64,
    /// Wait time in seconds (field 2); `-1` when unknown.
    pub wait_time: f64,
    /// Run time in seconds (field 3); `-1` when unknown.
    pub run_time: f64,
    /// Number of allocated processors (field 4); `-1` when unknown.
    pub allocated_processors: i64,
    /// Requested processors (field 7); `-1` when unknown.
    pub requested_processors: i64,
    /// Requested (estimated) runtime in seconds (field 8); `-1` when unknown.
    pub requested_time: f64,
    /// Completion status (field 10); `1` means completed normally.
    pub status: i64,
    /// User id (field 11); `-1` when unknown.
    pub user_id: i64,
    /// Group id (field 12); `-1` when unknown.
    pub group_id: i64,
    /// Queue number (field 14); `-1` when unknown.
    pub queue: i64,
}

impl SwfRecord {
    /// The processor count to simulate with: allocated if known, otherwise
    /// requested, otherwise 1.
    #[must_use]
    pub fn effective_processors(&self) -> u32 {
        let p = if self.allocated_processors > 0 {
            self.allocated_processors
        } else if self.requested_processors > 0 {
            self.requested_processors
        } else {
            1
        };
        u32::try_from(p).unwrap_or(1)
    }

    /// The runtime to simulate with: actual if known, otherwise requested.
    /// Returns `None` when neither is known (such records are skipped).
    #[must_use]
    pub fn effective_runtime(&self) -> Option<f64> {
        if self.run_time > 0.0 {
            Some(self.run_time)
        } else if self.requested_time > 0.0 {
            Some(self.requested_time)
        } else {
            None
        }
    }

    /// Converts the record into a simulator [`Job`] with sequence number
    /// `seq`, or `None` when the record has no usable runtime.  This is the
    /// single conversion point shared by [`SwfTrace::to_jobs`] and the
    /// streaming [`SwfJobStream`], so the two paths cannot drift.
    #[must_use]
    pub fn to_job(
        &self,
        seq: usize,
        origin: usize,
        origin_mips: f64,
        max_processors: u32,
        comm_fraction: f64,
    ) -> Option<Job> {
        let runtime = self.effective_runtime()?;
        let processors = self.effective_processors().clamp(1, max_processors.max(1));
        let user_local = usize::try_from(self.user_id.max(0)).unwrap_or(0);
        Some(Job::from_runtime(
            JobId { origin, seq },
            UserId {
                origin,
                local: user_local,
            },
            self.submit_time.max(0.0),
            processors,
            runtime,
            origin_mips,
            comm_fraction,
        ))
    }
}

/// One classified SWF line: the unit both the eager parser and the
/// streaming job source are built from.
enum SwfLine {
    Blank,
    Comment(String),
    Record(SwfRecord),
}

/// Parses one raw SWF line (1-based `line_no` is for error reporting only).
fn parse_swf_line(raw_line: &str, line_no: usize) -> Result<SwfLine, SwfParseError> {
    let line = raw_line.trim();
    if line.is_empty() {
        return Ok(SwfLine::Blank);
    }
    if let Some(comment) = line.strip_prefix(';') {
        return Ok(SwfLine::Comment(comment.trim().to_string()));
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 5 {
        return Err(SwfParseError {
            line: line_no,
            message: format!("expected at least 5 fields, found {}", fields.len()),
        });
    }
    let get_i = |i: usize| -> Result<i64, SwfParseError> {
        fields.get(i).map_or(Ok(-1), |s| {
            s.parse::<i64>().map_err(|_| SwfParseError {
                line: line_no,
                message: format!("field {i} is not an integer: {s:?}"),
            })
        })
    };
    let get_f = |i: usize| -> Result<f64, SwfParseError> {
        fields.get(i).map_or(Ok(-1.0), |s| {
            s.parse::<f64>().map_err(|_| SwfParseError {
                line: line_no,
                message: format!("field {i} is not a number: {s:?}"),
            })
        })
    };
    Ok(SwfLine::Record(SwfRecord {
        job_number: get_i(0)?,
        submit_time: get_f(1)?,
        wait_time: get_f(2)?,
        run_time: get_f(3)?,
        allocated_processors: get_i(4)?,
        requested_processors: get_i(7)?,
        requested_time: get_f(8)?,
        status: get_i(10)?,
        user_id: get_i(11)?,
        group_id: get_i(12)?,
        queue: get_i(14)?,
    }))
}

/// Errors produced while parsing an SWF document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for SwfParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfParseError {}

/// A parsed SWF trace: header comments plus records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfTrace {
    /// Header / inline comment lines, without the leading `;`.
    pub comments: Vec<String>,
    /// Parsed job records, in file order.
    pub records: Vec<SwfRecord>,
}

impl SwfTrace {
    /// Parses an SWF document from a string.
    ///
    /// Lines starting with `;` are collected as comments; blank lines are
    /// skipped; data lines must contain at least the first five fields.
    ///
    /// # Errors
    /// Returns an error naming the first malformed line.
    pub fn parse(text: &str) -> Result<SwfTrace, SwfParseError> {
        let mut trace = SwfTrace::default();
        for (idx, raw_line) in text.lines().enumerate() {
            match parse_swf_line(raw_line, idx + 1)? {
                SwfLine::Blank => {}
                SwfLine::Comment(c) => trace.comments.push(c),
                SwfLine::Record(r) => trace.records.push(r),
            }
        }
        Ok(trace)
    }

    /// Serialises the trace back to SWF text (comments first, then records
    /// with the 18 canonical fields; fields this struct does not model are
    /// written as `-1`).
    #[must_use]
    pub fn to_swf_string(&self) -> String {
        let mut out = String::new();
        for c in &self.comments {
            out.push_str("; ");
            out.push_str(c);
            out.push('\n');
        }
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {} {} {} -1 -1 {} {} -1 {} {} {} -1 {} -1 -1 -1\n",
                r.job_number,
                r.submit_time,
                r.wait_time,
                r.run_time,
                r.allocated_processors,
                r.requested_processors,
                r.requested_time,
                r.status,
                r.user_id,
                r.group_id,
                r.queue,
            ));
        }
        out
    }

    /// Keeps only records whose submit time lies in `[start, end)` and
    /// rebases their submit times to `start`.  The paper simulates a two-day
    /// window of each trace; this is the helper that cuts that window.
    #[must_use]
    pub fn window(&self, start: f64, end: f64) -> SwfTrace {
        let records = self
            .records
            .iter()
            .filter(|r| r.submit_time >= start && r.submit_time < end)
            .map(|r| {
                let mut r = r.clone();
                r.submit_time -= start;
                r
            })
            .collect();
        SwfTrace {
            comments: self.comments.clone(),
            records,
        }
    }

    /// Converts the trace into simulator [`Job`]s for a resource with
    /// `origin` index, `origin_mips` per-processor speed and `max_processors`
    /// capacity.  Records without a usable runtime are skipped; processor
    /// requests are clamped to the resource size (archive traces occasionally
    /// contain requests larger than the partition).  `comm_fraction` is the
    /// share of runtime attributed to communication (0.10 in the paper).
    #[must_use]
    pub fn to_jobs(
        &self,
        origin: usize,
        origin_mips: f64,
        max_processors: u32,
        comm_fraction: f64,
    ) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.records.len());
        for (seq, rec) in self.records.iter().enumerate() {
            if let Some(job) = rec.to_job(seq, origin, origin_mips, max_processors, comm_fraction) {
                jobs.push(job);
            }
        }
        jobs
    }
}

/// Lazy, line-by-line SWF job source.
///
/// Reads one line at a time from any [`BufRead`] — a memory-mapped archive
/// trace, a file reader, or an in-memory string via
/// [`SwfJobStream::from_text`] — and yields the same [`Job`] sequence that
/// `SwfTrace::parse(..)` + [`SwfTrace::to_jobs`] would materialise, without
/// ever holding the parsed trace in memory.  Comments and blank lines are
/// skipped; records without a usable runtime are skipped but still consume
/// a sequence number, exactly as the eager path numbers them.
///
/// The iterator yields `Result` so malformed lines surface as
/// [`SwfParseError`]s at the line that fails; after an error (including
/// I/O errors, reported with the failing line number) the stream is fused.
#[derive(Debug)]
pub struct SwfJobStream<R> {
    reader: R,
    line: String,
    line_no: usize,
    seq: usize,
    origin: usize,
    origin_mips: f64,
    max_processors: u32,
    comm_fraction: f64,
    done: bool,
}

impl<'a> SwfJobStream<&'a [u8]> {
    /// Streams jobs out of in-memory SWF text.
    #[must_use]
    pub fn from_text(
        text: &'a str,
        origin: usize,
        origin_mips: f64,
        max_processors: u32,
        comm_fraction: f64,
    ) -> Self {
        SwfJobStream::new(
            text.as_bytes(),
            origin,
            origin_mips,
            max_processors,
            comm_fraction,
        )
    }
}

impl<R: BufRead> SwfJobStream<R> {
    /// Streams jobs out of `reader`, with the same conversion parameters as
    /// [`SwfTrace::to_jobs`].
    #[must_use]
    pub fn new(
        reader: R,
        origin: usize,
        origin_mips: f64,
        max_processors: u32,
        comm_fraction: f64,
    ) -> Self {
        SwfJobStream {
            reader,
            line: String::new(),
            line_no: 0,
            seq: 0,
            origin,
            origin_mips,
            max_processors,
            comm_fraction,
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for SwfJobStream<R> {
    type Item = Result<Job, SwfParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.line.clear();
            self.line_no += 1;
            match self.reader.read_line(&mut self.line) {
                Ok(0) => self.done = true,
                Ok(_) => match parse_swf_line(&self.line, self.line_no) {
                    Ok(SwfLine::Blank | SwfLine::Comment(_)) => {}
                    Ok(SwfLine::Record(rec)) => {
                        let seq = self.seq;
                        self.seq += 1;
                        if let Some(job) = rec.to_job(
                            seq,
                            self.origin,
                            self.origin_mips,
                            self.max_processors,
                            self.comm_fraction,
                        ) {
                            return Some(Ok(job));
                        }
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                },
                Err(e) => {
                    self.done = true;
                    return Some(Err(SwfParseError {
                        line: self.line_no,
                        message: format!("I/O error: {e}"),
                    }));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: IBM SP2
; MaxNodes: 128
1 0 10 3600 16 -1 -1 16 7200 -1 1 3 1 -1 1 -1 -1 -1
2 120 5 1800 -1 -1 -1 32 3600 -1 1 4 1 -1 1 -1 -1 -1

3 86500 0 -1 8 -1 -1 8 -1 -1 0 5 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_comments_and_records() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        assert_eq!(t.comments.len(), 3);
        assert_eq!(t.comments[2], "MaxNodes: 128");
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[0].job_number, 1);
        assert_eq!(t.records[0].allocated_processors, 16);
        assert_eq!(t.records[1].allocated_processors, -1);
        assert_eq!(t.records[1].requested_processors, 32);
        assert_eq!(t.records[2].run_time, -1.0);
    }

    #[test]
    fn effective_fields_fall_back_sensibly() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        assert_eq!(t.records[0].effective_processors(), 16);
        assert_eq!(t.records[1].effective_processors(), 32);
        assert_eq!(t.records[0].effective_runtime(), Some(3_600.0));
        // Record 3 has run_time = -1 and requested_time = -1 → None.
        assert_eq!(t.records[2].effective_runtime(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = SwfTrace::parse("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("at least 5 fields"));
        let err = SwfTrace::parse("1 x 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n").unwrap_err();
        assert!(err.message.contains("not a number"));
        assert!(format!("{err}").contains("line 1"));
    }

    #[test]
    fn roundtrip_preserves_essential_fields() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let text = t.to_swf_string();
        let t2 = SwfTrace::parse(&text).unwrap();
        assert_eq!(t2.records.len(), t.records.len());
        for (a, b) in t.records.iter().zip(&t2.records) {
            assert_eq!(a.job_number, b.job_number);
            assert_eq!(a.submit_time, b.submit_time);
            assert_eq!(a.run_time, b.run_time);
            assert_eq!(a.allocated_processors, b.allocated_processors);
            assert_eq!(a.requested_processors, b.requested_processors);
            assert_eq!(a.user_id, b.user_id);
        }
    }

    #[test]
    fn window_filters_and_rebases() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let w = t.window(100.0, 86_400.0);
        assert_eq!(w.records.len(), 1);
        assert_eq!(w.records[0].job_number, 2);
        assert_eq!(w.records[0].submit_time, 20.0);
    }

    #[test]
    fn to_jobs_clamps_and_converts() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let jobs = t.to_jobs(3, 900.0, 16, 0.10);
        // Third record has no runtime → skipped.
        assert_eq!(jobs.len(), 2);
        let j0 = &jobs[0];
        assert_eq!(j0.id, JobId { origin: 3, seq: 0 });
        assert_eq!(j0.processors, 16);
        assert!((j0.compute_time(900.0) - 3_240.0).abs() < 1e-9); // 90 % of 3600
        assert!((j0.comm_overhead - 360.0).abs() < 1e-9);
        // Second record requested 32 processors, clamped to the 16-node machine.
        assert_eq!(jobs[1].processors, 16);
        assert_eq!(jobs[1].user.local, 4);
    }

    #[test]
    fn empty_input_is_empty_trace() {
        let t = SwfTrace::parse("").unwrap();
        assert!(t.records.is_empty());
        assert!(t.comments.is_empty());
    }

    #[test]
    fn streamed_jobs_match_materialised_jobs() {
        let eager = SwfTrace::parse(SAMPLE).unwrap().to_jobs(3, 900.0, 16, 0.10);
        let streamed: Vec<Job> = SwfJobStream::from_text(SAMPLE, 3, 900.0, 16, 0.10)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, eager);
        // The runtime-less third record was skipped but consumed seq 2, so
        // sequence numbers carry the original record positions.
        assert_eq!(streamed[0].id.seq, 0);
        assert_eq!(streamed[1].id.seq, 1);
    }

    #[test]
    fn stream_surfaces_parse_errors_and_fuses() {
        let text = "1 0 10 3600 16 -1 -1 16 7200 -1 1 3 1 -1 1 -1 -1 -1\n1 2 3\n";
        let mut stream = SwfJobStream::from_text(text, 0, 800.0, 32, 0.10);
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("at least 5 fields"));
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn stream_accepts_any_bufread() {
        let reader = std::io::BufReader::new(SAMPLE.as_bytes());
        let jobs: Vec<Job> = SwfJobStream::new(reader, 3, 900.0, 16, 0.10)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn stream_of_empty_input_is_empty() {
        assert!(SwfJobStream::from_text("", 0, 800.0, 8, 0.10)
            .next()
            .is_none());
    }
}
