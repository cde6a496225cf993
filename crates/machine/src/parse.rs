//! Textual machine descriptions, so targets can be written as data:
//!
//! ```text
//! machine my604 {
//!     unit SCIU  count=2 latency=1  clean
//!     unit FPU   count=1 latency=3  table[X.. / .X. / .XX]
//!     unit LSU   count=1 latency=3  clean
//!     unit FDIV  count=1 latency=18 nonpipelined
//! }
//! ```
//!
//! Classes are assigned in declaration order (`SCIU` is `OpClass(0)`,
//! …). Tables are written row per stage, `X` = occupied, `.` = idle,
//! rows separated by `/`; `clean` takes the latency as execution time
//! with a single issue-slot stage; `nonpipelined` holds one stage for
//! the full latency.
//!
//! VLIW issue-bundle constraints are optional trailing lines:
//!
//! ```text
//!     bundle width=2
//!     slot mem cap=1 classes=2
//! ```
//!
//! `bundle` caps total issues per cycle; each `slot` line names a group
//! capping the listed classes (comma-separated declaration indices).
//!
//! A description may come from an untrusted peer, and work and memory
//! downstream grow with unit counts and latencies, so `count=` and
//! `latency=` above [`MAX_UNIT_FIELD`] are parse errors.

use crate::machine::{BundleSpec, FuType, Machine, SlotGroup};
use crate::restable::ReservationTable;
use std::error::Error;
use std::fmt;

/// A machine-description parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for MachineParseError {}

/// The largest `count=` or `latency=` a unit line may carry. Bounds the
/// per-period tables the schedulers allocate (a latency of `d` forces
/// periods of at least `d` for a non-pipelined unit), while leaving unit
/// counts far above the CP engine's 64-unit coloring limit reachable.
pub const MAX_UNIT_FIELD: u32 = 1024;

fn err(line: usize, message: impl Into<String>) -> MachineParseError {
    MachineParseError {
        line,
        message: message.into(),
    }
}

/// Parses one `machine <name> { … }` block into a [`Machine`] and its
/// name.
///
/// # Errors
///
/// [`MachineParseError`] on malformed syntax, bad counts, or reservation
/// tables that are ragged / empty / idle at issue time.
pub fn parse_machine(source: &str) -> Result<(String, Machine), MachineParseError> {
    let mut name = None;
    let mut units: Vec<FuType> = Vec::new();
    let mut width: Option<(u32, usize)> = None;
    let mut groups: Vec<SlotGroup> = Vec::new();
    let mut in_body = false;
    let mut closed = false;
    for (ln, raw) in source.lines().enumerate() {
        let line_no = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !in_body {
            let rest = line
                .strip_prefix("machine")
                .ok_or_else(|| err(line_no, "expected `machine <name> {`"))?
                .trim();
            let rest = rest
                .strip_suffix('{')
                .ok_or_else(|| err(line_no, "expected `{` at end of header"))?
                .trim();
            if rest.is_empty() {
                return Err(err(line_no, "machine needs a name"));
            }
            name = Some(rest.to_string());
            in_body = true;
        } else if line == "}" {
            closed = true;
            in_body = false;
        } else if closed {
            return Err(err(line_no, "content after closing `}`"));
        } else if line.starts_with("bundle") {
            if width.is_some() {
                return Err(err(line_no, "duplicate `bundle` line"));
            }
            width = Some((parse_bundle(line, line_no)?, line_no));
        } else if line.starts_with("slot") {
            groups.push(parse_slot(line, line_no)?);
        } else {
            units.push(parse_unit(line, line_no)?);
        }
    }
    let name = name.ok_or_else(|| err(1, "no `machine` block found"))?;
    if !closed {
        return Err(err(source.lines().count().max(1), "missing closing `}`"));
    }
    if units.is_empty() {
        return Err(err(1, "machine has no units"));
    }
    let mut machine = Machine::new(units).map_err(|e| err(1, format!("invalid machine: {e}")))?;
    match width {
        Some((w, bundle_line)) => {
            machine = machine
                .with_bundle(BundleSpec { width: w, groups })
                .map_err(|e| err(bundle_line, format!("invalid bundle: {e}")))?;
        }
        None if !groups.is_empty() => {
            return Err(err(1, "`slot` lines need a `bundle width=` line"));
        }
        None => {}
    }
    Ok((name, machine))
}

fn parse_bundle(line: &str, line_no: usize) -> Result<u32, MachineParseError> {
    let rest = line
        .strip_prefix("bundle")
        .expect("caller checked the prefix")
        .trim();
    let spec = rest
        .strip_prefix("width=")
        .ok_or_else(|| err(line_no, "expected `bundle width=<n>`"))?;
    spec.parse::<u32>()
        .map_err(|_| err(line_no, format!("bad bundle width `{spec}`")))
}

fn parse_slot(line: &str, line_no: usize) -> Result<SlotGroup, MachineParseError> {
    let rest = line
        .strip_prefix("slot")
        .expect("caller checked the prefix")
        .trim();
    let mut name = None;
    let mut cap = None;
    let mut classes = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("cap=") {
            cap = Some(
                v.parse::<u32>()
                    .map_err(|_| err(line_no, format!("bad slot cap `{v}`")))?,
            );
        } else if let Some(v) = tok.strip_prefix("classes=") {
            classes = Some(
                v.split(',')
                    .map(|c| {
                        c.parse::<usize>()
                            .map_err(|_| err(line_no, format!("bad slot class `{c}`")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            );
        } else if name.is_none() {
            name = Some(tok.to_string());
        } else {
            return Err(err(line_no, format!("unexpected token `{tok}`")));
        }
    }
    Ok(SlotGroup {
        name: name.ok_or_else(|| err(line_no, "slot needs a name"))?,
        cap: cap.ok_or_else(|| err(line_no, "slot needs `cap=`"))?,
        classes: classes.ok_or_else(|| err(line_no, "slot needs `classes=`"))?,
    })
}

/// Serializes `machine` back into the textual format accepted by
/// [`parse_machine`], so generated or shrunk machines can be stored as
/// self-contained data files. `write_machine` ∘ `parse_machine` is the
/// identity on the [`Machine`] (names included), which the round-trip
/// tests pin down.
///
/// Shapes that exactly match `clean`/`nonpipelined` at the unit's
/// latency use the keyword; everything else is written as an explicit
/// `table[...]`, which can express any reservation table.
pub fn write_machine(name: &str, machine: &Machine) -> String {
    let mut out = String::new();
    // Header names and unit names are whitespace-delimited tokens.
    let safe = |s: &str| s.replace(char::is_whitespace, "_");
    out.push_str(&format!("machine {} {{\n", safe(name)));
    for t in machine.types() {
        let shape = if t.reservation == ReservationTable::clean(t.latency) {
            "clean".to_string()
        } else if t.reservation == ReservationTable::non_pipelined(t.latency) {
            "nonpipelined".to_string()
        } else {
            let rows: Vec<String> = (0..t.reservation.stages())
                .map(|s| {
                    (0..t.reservation.exec_time() as usize)
                        .map(|l| if t.reservation.mark(s, l) { 'X' } else { '.' })
                        .collect()
                })
                .collect();
            format!("table[{}]", rows.join("/"))
        };
        out.push_str(&format!(
            "    unit {} count={} latency={} {}\n",
            safe(&t.name),
            t.count,
            t.latency,
            shape
        ));
    }
    if let Some(b) = machine.bundle() {
        out.push_str(&format!("    bundle width={}\n", b.width));
        for g in &b.groups {
            let classes: Vec<String> = g.classes.iter().map(ToString::to_string).collect();
            out.push_str(&format!(
                "    slot {} cap={} classes={}\n",
                safe(&g.name),
                g.cap,
                classes.join(",")
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// Parses a unit's `count=` / `latency=` value, capped at [`MAX_UNIT_FIELD`].
fn parse_field(key: &str, v: &str, line_no: usize) -> Result<u32, MachineParseError> {
    let n = v
        .parse::<u32>()
        .map_err(|_| err(line_no, format!("bad {key} `{v}`")))?;
    if n > MAX_UNIT_FIELD {
        return Err(err(line_no, format!("{key} {n} exceeds {MAX_UNIT_FIELD}")));
    }
    Ok(n)
}

fn parse_unit(line: &str, line_no: usize) -> Result<FuType, MachineParseError> {
    let rest = line
        .strip_prefix("unit")
        .ok_or_else(|| err(line_no, format!("expected `unit …`, got `{line}`")))?
        .trim();
    // Split off a trailing `table[...]` if present, then whitespace-split.
    let (head, table_spec) = match rest.find("table[") {
        Some(pos) => {
            let spec = rest[pos..]
                .strip_prefix("table[")
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| err(line_no, "malformed `table[...]`"))?;
            (rest[..pos].trim(), Some(spec.trim().to_string()))
        }
        None => (rest, None),
    };
    let mut name = None;
    let mut count = None;
    let mut latency = None;
    let mut shape: Option<&str> = None;
    for tok in head.split_whitespace() {
        if let Some(v) = tok.strip_prefix("count=") {
            count = Some(parse_field("count", v, line_no)?);
        } else if let Some(v) = tok.strip_prefix("latency=") {
            latency = Some(parse_field("latency", v, line_no)?);
        } else if tok == "clean" || tok == "nonpipelined" {
            if shape.is_some() {
                return Err(err(line_no, format!("duplicate shape token `{tok}`")));
            }
            shape = Some(tok);
        } else if name.is_none() {
            name = Some(tok.to_string());
        } else {
            return Err(err(line_no, format!("unexpected token `{tok}`")));
        }
    }
    let name = name.ok_or_else(|| err(line_no, "unit needs a name"))?;
    let count = count.ok_or_else(|| err(line_no, "unit needs `count=`"))?;
    let latency = latency.ok_or_else(|| err(line_no, "unit needs `latency=`"))?;
    if latency == 0 {
        return Err(err(line_no, "latency must be positive"));
    }
    let reservation = match (shape, table_spec) {
        (Some("clean"), None) => ReservationTable::clean(latency),
        (Some("nonpipelined"), None) => ReservationTable::non_pipelined(latency),
        (None, Some(spec)) => {
            let rows: Vec<Vec<bool>> = spec
                .split('/')
                .map(|row| {
                    row.trim()
                        .chars()
                        .map(|c| match c {
                            'X' | 'x' => Ok(true),
                            '.' => Ok(false),
                            other => Err(err(
                                line_no,
                                format!("bad table char `{other}` (use X or .)"),
                            )),
                        })
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
            ReservationTable::from_rows(&refs).ok_or_else(|| {
                err(
                    line_no,
                    "bad reservation table (ragged, empty, or idle at issue)",
                )
            })?
        }
        (Some(s), Some(_)) => return Err(err(line_no, format!("`{s}` and `table[...]` conflict"))),
        (None, None) => {
            return Err(err(
                line_no,
                "unit needs `clean`, `nonpipelined`, or `table[...]`",
            ))
        }
        (Some(other), None) => return Err(err(line_no, format!("unknown shape `{other}`"))),
    };
    Ok(FuType {
        name,
        count,
        latency,
        reservation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ddg::OpClass;

    const SRC: &str = "
        # a 604-flavoured target
        machine m604 {
            unit SCIU count=2 latency=1  clean
            unit FPU  count=1 latency=3  table[X.. / .X. / .XX]
            unit LSU  count=1 latency=3  clean
            unit FDIV count=1 latency=18 nonpipelined
        }";

    #[test]
    fn parses_full_machine() {
        let (name, m) = parse_machine(SRC).expect("parses");
        assert_eq!(name, "m604");
        assert_eq!(m.num_classes(), 4);
        let fpu = m.fu_type(OpClass::new(1)).expect("fpu");
        assert_eq!(fpu.reservation.stages(), 3);
        assert!(!fpu.reservation.is_clean());
        assert_eq!(fpu.reservation.forbidden_latencies(), vec![1]);
        let fdiv = m.fu_type(OpClass::new(3)).expect("fdiv");
        assert_eq!(fdiv.reservation.min_self_period(), 18);
    }

    #[test]
    fn roundtrips_with_the_builtin_model() {
        // The text above is the example machine's FP table verbatim.
        let (_, m) = parse_machine(SRC).expect("parses");
        let builtin = Machine::example_pldi95();
        assert_eq!(
            m.fu_type(OpClass::new(1)).unwrap().reservation,
            builtin.fu_type(OpClass::new(1)).unwrap().reservation
        );
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse_machine("machine m {\n unit A count=1 latency=0 clean\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("latency"));
        let e = parse_machine("machine m {\n unit A latency=1 clean\n}").unwrap_err();
        assert!(e.message.contains("count"));
        let e = parse_machine("machine m {\n unit A count=1 latency=2\n}").unwrap_err();
        assert!(e.message.contains("clean"));
    }

    #[test]
    fn unit_fields_are_capped() {
        let unit = |fields: &str| parse_machine(&format!("machine m {{\n unit A {fields}\n}}"));
        for fields in [
            "count=2147483648 latency=1 clean",
            "count=1 latency=4000000000 clean",
            "count=1025 latency=1 clean",
            "count=1 latency=1025 clean",
        ] {
            let e = unit(fields).unwrap_err();
            assert_eq!(e.line, 2, "{fields}");
            assert!(e.message.contains("exceeds 1024"), "{fields}: {e}");
        }
        // At the cap, and far above the CP engine's 64-unit coloring limit.
        let (_, m) = unit("count=1024 latency=1024 nonpipelined").unwrap();
        assert_eq!(m.types()[0].count, MAX_UNIT_FIELD);
        assert!(unit("count=65 latency=3 table[X.. / .XX]").is_ok());
    }

    #[test]
    fn bad_tables_rejected() {
        let e =
            parse_machine("machine m {\n unit A count=1 latency=2 table[X. / X]\n}").unwrap_err();
        assert!(e.message.contains("reservation table"));
        let e = parse_machine("machine m {\n unit A count=1 latency=2 table[.X]\n}").unwrap_err();
        assert!(e.message.contains("reservation table")); // idle at issue
        let e = parse_machine("machine m {\n unit A count=1 latency=2 table[XQ]\n}").unwrap_err();
        assert!(e.message.contains("bad table char"));
    }

    #[test]
    fn write_machine_round_trips() {
        for (name, machine) in [
            ("example", Machine::example_pldi95()),
            ("clean", Machine::example_clean()),
            ("nonpipe", Machine::example_non_pipelined()),
            ("ppc604", Machine::ppc604()),
            ("vliw", Machine::example_vliw()),
        ] {
            let text = write_machine(name, &machine);
            let (parsed_name, parsed) = parse_machine(&text)
                .unwrap_or_else(|e| panic!("{name}: generated text failed to parse: {e}\n{text}"));
            assert_eq!(parsed_name, name);
            assert_eq!(parsed, machine, "{name} did not round-trip:\n{text}");
        }
    }

    #[test]
    fn write_machine_uses_explicit_tables_when_needed() {
        // A clean table whose execution time differs from the dependence
        // latency cannot use the `clean` keyword (which ties the two).
        let m = Machine::new(vec![FuType {
            name: "A".to_string(),
            count: 1,
            latency: 4,
            reservation: ReservationTable::clean(2),
        }])
        .unwrap();
        let text = write_machine("m", &m);
        assert!(text.contains("table["), "{text}");
        let (_, parsed) = parse_machine(&text).expect("parses");
        assert_eq!(parsed, m);
    }

    #[test]
    fn bundle_lines_parse_and_report_errors() {
        let (_, m) = parse_machine(
            "machine v {\n unit A count=2 latency=1 clean\n unit B count=1 latency=2 clean\n \
             bundle width=2\n slot mem cap=1 classes=1\n}",
        )
        .expect("parses");
        let b = m.bundle().expect("has bundle");
        assert_eq!(b.width, 2);
        assert_eq!(b.groups.len(), 1);
        assert_eq!(b.groups[0].classes, vec![1]);

        let e = parse_machine("machine v {\n unit A count=1 latency=1 clean\n bundle width=0\n}")
            .unwrap_err();
        assert!(e.message.contains("invalid bundle"), "{e}");
        let e = parse_machine("machine v {\n unit A count=1 latency=1 clean\n bundle w=2\n}")
            .unwrap_err();
        assert!(e.message.contains("bundle width"), "{e}");
        let e = parse_machine(
            "machine v {\n unit A count=1 latency=1 clean\n slot mem cap=1 classes=0\n}",
        )
        .unwrap_err();
        assert!(e.message.contains("bundle width"), "{e}");
        let e = parse_machine(
            "machine v {\n unit A count=1 latency=1 clean\n bundle width=2\n bundle width=2\n}",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn structure_errors() {
        assert!(parse_machine("").is_err());
        assert!(parse_machine("machine m {").is_err());
        assert!(parse_machine("machine m {\n}").is_err()); // no units
        assert!(parse_machine("machine m {\n}\nunit X").is_err());
    }

    #[test]
    fn parsed_machine_schedules() {
        let (_, m) = parse_machine(SRC).expect("parses");
        let mut g = swp_ddg::Ddg::new();
        let a = g.add_node("ld", OpClass::new(2), 3);
        let b = g.add_node("fmul", OpClass::new(1), 3);
        g.add_edge(a, b, 0).unwrap();
        assert!(m.t_lower_bound(&g).unwrap().is_some());
    }
}
