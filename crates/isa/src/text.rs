//! A textual kernel format: assemble and disassemble [`Kernel`]s.
//!
//! The format is line-oriented; `#` starts a comment. A kernel is:
//!
//! ```text
//! kernel add_relu {
//!     move gm->ub gm[0:32768] ub[0:32768]
//!     set f0 @mte-gm
//!     wait f0 @vector
//!     vector.fp16 16384 reads ub[0:32768] writes ub[0:32768]
//!     barrier
//! }
//! ```
//!
//! - `move <path> <src-region> <dst-region>` — an MTE transfer;
//! - `<unit>.<precision> <ops> [reads r,…] [writes r,…]` — compute;
//! - `set f<N> @<queue>` / `wait f<N> @<queue>` — flag synchronization;
//! - `barrier` — `pipe_barrier(PIPE_ALL)`;
//! - regions are `<buffer>[<start>:<end>]` byte ranges (end exclusive).
//!
//! [`parse_kernel`] and [`kernel_to_text`] round-trip exactly.

use crate::{ComputeInstr, FlagId, Instruction, Kernel, Region, Regions, TransferInstr};
use ascend_arch::{Buffer, Component, ComputeUnit, Precision, TransferPath};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_buffer(s: &str, line: usize) -> Result<Buffer, ParseError> {
    Buffer::ALL
        .into_iter()
        .find(|b| b.name() == s)
        .ok_or_else(|| err(line, format!("unknown buffer `{s}`")))
}

fn parse_region(s: &str, line: usize) -> Result<Region, ParseError> {
    let open = s.find('[').ok_or_else(|| err(line, format!("malformed region `{s}`")))?;
    if !s.ends_with(']') {
        return Err(err(line, format!("malformed region `{s}`")));
    }
    let buffer = parse_buffer(&s[..open], line)?;
    let inner = &s[open + 1..s.len() - 1];
    let (a, b) =
        inner.split_once(':').ok_or_else(|| err(line, format!("region `{s}` needs start:end")))?;
    let start: u64 = a.parse().map_err(|_| err(line, format!("bad offset `{a}`")))?;
    let end: u64 = b.parse().map_err(|_| err(line, format!("bad offset `{b}`")))?;
    if end < start {
        return Err(err(line, format!("region `{s}` ends before it starts")));
    }
    Ok(Region::new(buffer, start, end - start))
}

fn parse_queue(s: &str, line: usize) -> Result<Component, ParseError> {
    let name =
        s.strip_prefix('@').ok_or_else(|| err(line, format!("queue `{s}` must start with @")))?;
    Component::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| err(line, format!("unknown queue `{name}`")))
}

fn parse_flag(s: &str, line: usize) -> Result<FlagId, ParseError> {
    let raw = s
        .strip_prefix('f')
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| err(line, format!("flag `{s}` must look like f0, f1, …")))?;
    Ok(FlagId::new(raw))
}

fn parse_path(s: &str, line: usize) -> Result<TransferPath, ParseError> {
    TransferPath::ALL
        .into_iter()
        .find(|p| p.name() == s)
        .ok_or_else(|| err(line, format!("unknown transfer path `{s}`")))
}

fn parse_regions_list<const N: usize>(s: &str, line: usize) -> Result<Regions<N>, ParseError> {
    s.split(',').filter(|p| !p.is_empty()).map(|p| parse_region(p.trim(), line)).collect()
}

fn parse_compute(head: &str, rest: &[&str], line: usize) -> Result<Instruction, ParseError> {
    let (unit_name, precision_name) = head
        .split_once('.')
        .ok_or_else(|| err(line, format!("compute `{head}` must be unit.precision")))?;
    let unit = ComputeUnit::ALL
        .into_iter()
        .find(|u| u.name() == unit_name)
        .ok_or_else(|| err(line, format!("unknown compute unit `{unit_name}`")))?;
    let precision = Precision::ALL
        .into_iter()
        .find(|p| p.mnemonic() == precision_name)
        .ok_or_else(|| err(line, format!("unknown precision `{precision_name}`")))?;
    let ops: u64 = rest
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(line, "compute needs an operation count"))?;
    let mut reads = Regions::new();
    let mut writes = Regions::new();
    let mut i = 1;
    while i < rest.len() {
        match rest[i] {
            "reads" => {
                i += 1;
                reads = parse_regions_list(
                    rest.get(i).ok_or_else(|| err(line, "`reads` needs regions"))?,
                    line,
                )?;
            }
            "writes" => {
                i += 1;
                writes = parse_regions_list(
                    rest.get(i).ok_or_else(|| err(line, "`writes` needs regions"))?,
                    line,
                )?;
            }
            other => return Err(err(line, format!("unexpected token `{other}`"))),
        }
        i += 1;
    }
    Ok(Instruction::Compute(ComputeInstr { unit, precision, ops, reads, writes }))
}

/// Parses the textual kernel format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line. Note that parsing
/// does **not** validate against a chip — run
/// [`validate`](crate::validate) afterwards.
///
/// # Examples
///
/// ```
/// let kernel = ascend_isa::parse_kernel(
///     "kernel demo {\n  move gm->ub gm[0:64] ub[0:64]\n}",
/// )?;
/// assert_eq!(kernel.name(), "demo");
/// assert_eq!(kernel.len(), 1);
/// # Ok::<(), ascend_isa::text::ParseError>(())
/// ```
pub fn parse_kernel(source: &str) -> Result<Kernel, ParseError> {
    let mut name: Option<String> = None;
    let mut instructions = Vec::new();
    let mut closed = false;
    for (i, raw_line) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if name.is_none() {
            match tokens.as_slice() {
                ["kernel", kernel_name, "{"] => {
                    name = Some((*kernel_name).to_owned());
                    continue;
                }
                _ => return Err(err(line_no, "expected `kernel <name> {`")),
            }
        }
        if closed {
            return Err(err(line_no, "content after closing `}`"));
        }
        match tokens.as_slice() {
            ["}"] => closed = true,
            ["barrier"] => instructions.push(Instruction::Barrier),
            ["move", path, src, dst] => {
                let path = parse_path(path, line_no)?;
                let src = parse_region(src, line_no)?;
                let dst = parse_region(dst, line_no)?;
                if src.len() != dst.len() {
                    return Err(err(line_no, "transfer source/destination lengths differ"));
                }
                instructions.push(Instruction::Transfer(TransferInstr { path, src, dst }));
            }
            ["set", flag, queue] => instructions.push(Instruction::SetFlag {
                queue: parse_queue(queue, line_no)?,
                flag: parse_flag(flag, line_no)?,
            }),
            ["wait", flag, queue] => instructions.push(Instruction::WaitFlag {
                queue: parse_queue(queue, line_no)?,
                flag: parse_flag(flag, line_no)?,
            }),
            [head, rest @ ..] if head.contains('.') => {
                instructions.push(parse_compute(head, rest, line_no)?);
            }
            _ => return Err(err(line_no, format!("unrecognized statement `{line}`"))),
        }
    }
    let Some(name) = name else {
        return Err(err(1, "missing `kernel <name> {` header"));
    };
    if !closed {
        return Err(err(source.lines().count(), "missing closing `}`"));
    }
    Ok(Kernel::from_parts(name, instructions))
}

fn region_to_text(region: &Region) -> String {
    format!("{}[{}:{}]", region.buffer(), region.offset(), region.end())
}

/// Renders a kernel in the textual format accepted by [`parse_kernel`];
/// the two functions round-trip exactly.
#[must_use]
pub fn kernel_to_text(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kernel {} {{", kernel.name());
    for instr in kernel {
        match instr {
            Instruction::Transfer(t) => {
                let _ = writeln!(
                    out,
                    "    move {} {} {}",
                    t.path,
                    region_to_text(&t.src),
                    region_to_text(&t.dst)
                );
            }
            Instruction::Compute(c) => {
                let _ = write!(out, "    {}.{} {}", c.unit, c.precision, c.ops);
                if !c.reads.is_empty() {
                    let list: Vec<String> = c.reads.iter().map(region_to_text).collect();
                    let _ = write!(out, " reads {}", list.join(","));
                }
                if !c.writes.is_empty() {
                    let list: Vec<String> = c.writes.iter().map(region_to_text).collect();
                    let _ = write!(out, " writes {}", list.join(","));
                }
                let _ = writeln!(out);
            }
            Instruction::SetFlag { queue, flag } => {
                let _ = writeln!(out, "    set f{} @{}", flag.raw(), queue);
            }
            Instruction::WaitFlag { queue, flag } => {
                let _ = writeln!(out, "    wait f{} @{}", flag.raw(), queue);
            }
            Instruction::Barrier => {
                let _ = writeln!(out, "    barrier");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    const SAMPLE: &str = "\
# Add_ReLU-style tile
kernel demo {
    move gm->ub gm[0:32768] ub[0:32768]   # load
    set f0 @mte-gm
    wait f0 @vector
    vector.fp16 16384 reads ub[0:32768] writes ub[0:32768]
    set f1 @vector
    wait f1 @mte-ub
    move ub->gm ub[0:32768] gm[65536:98304]
    barrier
}";

    #[test]
    fn parses_the_sample() {
        let kernel = parse_kernel(SAMPLE).unwrap();
        assert_eq!(kernel.name(), "demo");
        assert_eq!(kernel.len(), 8);
        assert!(matches!(kernel.instructions()[0], Instruction::Transfer(_)));
        assert!(matches!(kernel.instructions()[7], Instruction::Barrier));
    }

    #[test]
    fn round_trips_exactly() {
        let kernel = parse_kernel(SAMPLE).unwrap();
        let text = kernel_to_text(&kernel);
        let back = parse_kernel(&text).unwrap();
        assert_eq!(kernel, back);
        // And a builder-made kernel round-trips too.
        let mut b = KernelBuilder::new("built");
        let gm = Region::new(Buffer::Gm, 0, 128);
        let ub = Region::new(Buffer::Ub, 0, 128);
        b.transfer(TransferPath::GmToUb, gm, ub).unwrap();
        b.sync(Component::MteGm, Component::Cube);
        b.compute(ComputeUnit::Cube, Precision::Int8, 4096, vec![ub], vec![]);
        b.barrier_all();
        let kernel = b.build();
        assert_eq!(parse_kernel(&kernel_to_text(&kernel)).unwrap(), kernel);
    }

    #[test]
    fn parsed_kernels_validate_and_simulate() {
        let chip = ascend_arch::ChipSpec::training();
        let kernel = parse_kernel(SAMPLE).unwrap();
        crate::validate(&kernel, &chip).unwrap();
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let bad = "kernel x {\n    move nowhere gm[0:8] ub[0:8]\n}";
        let e = parse_kernel(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nowhere"));

        let bad = "kernel x {\n    move gm->ub gm[0:8] ub[0:16]\n}";
        let e = parse_kernel(bad).unwrap_err();
        assert!(e.message.contains("lengths differ"));

        let bad = "kernel x {\n    vector.fp64 8\n}";
        assert!(parse_kernel(bad).is_ok(), "precision checked at validate, not parse");

        let bad = "move gm->ub gm[0:8] ub[0:8]";
        assert!(parse_kernel(bad).unwrap_err().message.contains("kernel <name>"));

        let bad = "kernel x {\n    move gm->ub gm[0:8] ub[0:8]";
        assert!(parse_kernel(bad).unwrap_err().message.contains("closing"));

        let bad = "kernel x {\n}\nbarrier";
        assert!(parse_kernel(bad).unwrap_err().message.contains("after closing"));
    }

    #[test]
    fn region_errors_are_specific() {
        for (text, needle) in [
            ("kernel x {\n    move gm->ub gm[8:0] ub[0:8]\n}", "ends before"),
            ("kernel x {\n    move gm->ub gm(0:8) ub[0:8]\n}", "malformed region"),
            ("kernel x {\n    move gm->ub gm[a:8] ub[0:8]\n}", "bad offset"),
            ("kernel x {\n    wait g0 @vector\n}", "must look like f0"),
            ("kernel x {\n    wait f0 vector\n}", "must start with @"),
        ] {
            let e = parse_kernel(text).unwrap_err();
            assert!(e.message.contains(needle), "{text} -> {e}");
        }
    }
}
