//! Process CPU time from `/proc/self/stat` (noise rule 7).
//!
//! `utime + stime` covers every thread of the process, dead or alive, so
//! server workers, resolver threads and the per-query scatter threads
//! all count — which is what makes `cpu_us_per_op` comparable between a
//! design that spawns threads and one that does not. The kernel reports
//! clock ticks; Linux has fixed `USER_HZ` at 100 on every architecture
//! since 2.6, so a tick is 10 ms. A round is sampled at both ends and
//! rounds are summed, so the quantisation error does not accumulate.

/// Nanoseconds per `/proc` clock tick (`USER_HZ` = 100).
const TICK_NS: u64 = 10_000_000;

/// Extracts `utime + stime`, in ticks, from one `/proc/<pid>/stat`
/// line. The second field is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`: after it come `state` (field 3) … `utime` (14),
/// `stime` (15).
pub fn parse_cpu_ticks(stat_line: &str) -> Result<u64, String> {
    let close = stat_line.rfind(')').ok_or("no ')' closing the process name")?;
    let mut fields = stat_line[close + 1..].split_ascii_whitespace();
    // `state` is field 3, so utime is the 12th field after the name.
    let utime = fields.nth(11).ok_or("stat line ends before utime")?;
    let stime = fields.next().ok_or("stat line ends before stime")?;
    let parse = |s: &str, what: &str| s.parse::<u64>().map_err(|e| format!("{what} {s:?}: {e}"));
    Ok(parse(utime, "utime")? + parse(stime, "stime")?)
}

/// CPU time this process has consumed so far, in nanoseconds.
pub fn process_cpu_ns() -> Result<u64, String> {
    let line = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    Ok(parse_cpu_ticks(&line)? * TICK_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The line of a process renamed (`prctl(PR_SET_NAME)`) to
    // "gph bench) :-) x": the name holds spaces and two ')'.
    const LINE: &str = "4242 (gph bench) :-) x) S 1 4242 4242 0 -1 4194560 1534 0 2 0 \
                        731 219 0 0 20 0 3 0 8934211 227594240 1923 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn parses_past_a_name_with_spaces_and_parens() {
        assert_eq!(parse_cpu_ticks(LINE), Ok(731 + 219));
    }

    #[test]
    fn plain_name_parses_too() {
        let line = "7 (cat) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_cpu_ticks(line), Ok(11));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse_cpu_ticks("no parens here").is_err());
        assert!(parse_cpu_ticks("1 (x) S 1 2 3").is_err());
        assert!(parse_cpu_ticks("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 6").is_err());
    }

    #[test]
    fn live_reading_is_monotone() {
        let a = process_cpu_ns().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns().unwrap() >= a);
    }
}
