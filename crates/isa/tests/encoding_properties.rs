//! Property tests: every representable instruction encodes/decodes
//! losslessly, and arbitrary byte streams never decode to something that
//! re-encodes differently.

use proptest::prelude::*;
use quest_isa::{LogicalInstr, LogicalQubit, MaskRegion, MicroOp, PhysOpcode, VliwWord};

fn logical_instr_strategy() -> impl Strategy<Value = LogicalInstr> {
    prop_oneof![
        any::<u8>().prop_map(|q| LogicalInstr::PrepZ(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::PrepX(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::MeasZ(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::MeasX(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::H(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::S(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::X(LogicalQubit(q))),
        any::<u8>().prop_map(|q| LogicalInstr::Z(LogicalQubit(q))),
        (0u8..16, 0u8..16).prop_map(|(c, t)| LogicalInstr::Cnot {
            control: LogicalQubit(c),
            target: LogicalQubit(t),
        }),
        any::<u8>().prop_map(|q| LogicalInstr::T(LogicalQubit(q))),
        any::<u8>().prop_map(|r| LogicalInstr::MaskOn(MaskRegion(r))),
        any::<u8>().prop_map(|r| LogicalInstr::MaskOff(MaskRegion(r))),
        any::<u8>().prop_map(|r| LogicalInstr::BraidStep(MaskRegion(r))),
        any::<u8>().prop_map(|q| LogicalInstr::MagicInject(LogicalQubit(q))),
        any::<u8>().prop_map(LogicalInstr::Sync),
        any::<u8>().prop_map(LogicalInstr::CacheLoad),
        any::<u8>().prop_map(LogicalInstr::CacheReplay),
    ]
}

fn microop_strategy() -> impl Strategy<Value = MicroOp> {
    (0usize..PhysOpcode::ALL.len(), 0u8..16)
        .prop_map(|(op, arg)| MicroOp::new(PhysOpcode::ALL[op], arg))
}

proptest! {
    #[test]
    fn logical_instr_round_trips(i in logical_instr_strategy()) {
        prop_assert_eq!(LogicalInstr::decode(i.encode()), Some(i));
    }

    #[test]
    fn logical_decode_reencode_is_identity(bytes in any::<[u8; 2]>()) {
        if let Some(i) = LogicalInstr::decode(bytes) {
            prop_assert_eq!(i.encode(), bytes);
        }
    }

    #[test]
    fn microop_round_trips(u in microop_strategy()) {
        prop_assert_eq!(MicroOp::decode(u.encode()), Some(u));
    }

    #[test]
    fn microop_decode_reencode_is_identity(b in any::<u8>()) {
        if let Some(u) = MicroOp::decode(b) {
            prop_assert_eq!(u.encode(), b);
        }
    }

    #[test]
    fn vliw_word_round_trips(uops in prop::collection::vec(microop_strategy(), 0..64)) {
        let w = VliwWord::from_uops(uops);
        let bytes = w.encode();
        prop_assert_eq!(bytes.len(), w.encoded_bytes());
        prop_assert_eq!(VliwWord::decode(&bytes), Some(w));
    }

    #[test]
    fn program_round_trips(instrs in prop::collection::vec(logical_instr_strategy(), 0..200)) {
        use quest_isa::LogicalProgram;
        let mut p = LogicalProgram::new();
        for i in &instrs {
            p.push_auto(*i);
        }
        let q = LogicalProgram::decode(&p.encode()).unwrap();
        let back: Vec<LogicalInstr> = q.iter().map(|(i, _)| *i).collect();
        prop_assert_eq!(instrs, back);
    }

    /// Assembly text round-trips: format(parse(format(p))) is stable and
    /// preserves instructions and classes exactly.
    #[test]
    fn assembly_round_trips(
        instrs in prop::collection::vec(logical_instr_strategy(), 0..120),
        class_seed in any::<u8>(),
    ) {
        use quest_isa::{asm, InstrClass, LogicalProgram};
        let classes = [
            InstrClass::Algorithmic,
            InstrClass::Distillation,
            InstrClass::Sync,
            InstrClass::CacheControl,
        ];
        let mut p = LogicalProgram::new();
        for (k, i) in instrs.iter().enumerate() {
            p.push(*i, classes[(k + class_seed as usize) % classes.len()]);
        }
        let text = asm::format(&p);
        let parsed = asm::parse(&text).unwrap();
        prop_assert_eq!(&p, &parsed);
        // Idempotence of the printer.
        prop_assert_eq!(asm::format(&parsed), text);
    }
}

/// Arbitrary text: code points anywhere in the `char` range (a surrogate
/// or out-of-range value becomes U+FFFD).
fn arbitrary_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..64).prop_map(|cps| {
        cps.into_iter()
            .map(|cp| char::from_u32(cp % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Line heads of near-miss assembly: every mnemonic and directive, and a
/// few that are not.
const ASM_HEADS: &[&str] = &[
    "lprepz", "lprepx", "lmeasz", "lmeasx", "lh", "ls", "lx", "lz", "lcnot", "lt", "mask.on",
    "mask.off", "braid", "minject", "sync", "cload", "creplay", ".class", "", "#", "LH", "é",
];

/// Operand prefixes of near-miss assembly.
const ASM_PREFIXES: &[&str] = &["L", "R", "", "l"];

/// Operand literals: in range, past the packed `lcnot` and `u8` limits,
/// signed, empty, and words.
const ASM_LITERALS: &[&str] = &[
    "0",
    "15",
    "16",
    "255",
    "256",
    "-1",
    "+7",
    "1000",
    "",
    "algorithmic",
    "cache",
    "x",
];

/// Line ends, including separators `str::lines` does not split on.
const ASM_LINE_ENDS: &[&str] = &["\n", "\r\n", " # note\n", "\u{2028}", "\u{85}\n"];

/// Spaces, including ones `split_whitespace` does not split on.
const ASM_SPACES: &[&str] = &[" ", "\t", "\u{a0}", "\u{0}"];

/// Every fragment above: what a mutation inserts into valid assembly.
fn asm_fragments() -> Vec<&'static str> {
    [
        ASM_HEADS,
        ASM_PREFIXES,
        ASM_LITERALS,
        ASM_LINE_ENDS,
        ASM_SPACES,
    ]
    .concat()
}

/// Near-miss assembly: lines of a head and up to three operands, each
/// drawn from the pools above.
fn fragment_text() -> impl Strategy<Value = String> {
    let operand = (0..ASM_PREFIXES.len(), 0..ASM_LITERALS.len());
    let line = (
        0..ASM_HEADS.len(),
        prop::collection::vec(operand, 0..4),
        0..ASM_LINE_ENDS.len(),
    );
    prop::collection::vec(line, 0..12).prop_map(|lines| {
        let mut text = String::new();
        for (head, operands, end) in lines {
            text.push_str(ASM_HEADS[head]);
            for (prefix, literal) in operands {
                text.push(' ');
                text.push_str(ASM_PREFIXES[prefix]);
                text.push_str(ASM_LITERALS[literal]);
            }
            text.push_str(ASM_LINE_ENDS[end]);
        }
        text
    })
}

/// Asserts the assembler's contract on one input: it returns a program or
/// a typed error naming a line of the input, and a program it returns
/// formats to text that assembles to the same program.
fn check_asm(text: &str) -> Result<(), TestCaseError> {
    use quest_isa::asm;
    match asm::parse(text) {
        Ok(p) => prop_assert_eq!(asm::parse(&asm::format(&p)), Ok(p)),
        Err(e) => prop_assert!(
            e.line >= 1 && e.line <= text.lines().count(),
            "error line {} outside the input's {} lines",
            e.line,
            text.lines().count()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes decode to a program or `None`; a program re-encodes
    /// to the very bytes, which decode to the same program.
    #[test]
    fn hostile_program_bytes_decode_or_refuse(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        use quest_isa::LogicalProgram;
        if let Some(p) = LogicalProgram::decode(&bytes) {
            let again = p.encode();
            prop_assert_eq!(&again, &bytes);
            prop_assert_eq!(LogicalProgram::decode(&again), Some(p));
        }
    }

    /// Arbitrary bytes decode to a VLIW word or `None`; a word re-encodes to
    /// the very bytes, which decode to the same word.
    #[test]
    fn hostile_vliw_bytes_decode_or_refuse(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        if let Some(w) = VliwWord::decode(&bytes) {
            let again = w.encode();
            prop_assert_eq!(&again, &bytes);
            prop_assert_eq!(VliwWord::decode(&again), Some(w));
        }
    }

    /// Arbitrary text never panics the assembler.
    #[test]
    fn hostile_text_assembles_or_errs(text in arbitrary_text()) {
        check_asm(&text)?;
    }

    /// Near-miss assembly never panics the assembler.
    #[test]
    fn fragment_text_assembles_or_errs(text in fragment_text()) {
        check_asm(&text)?;
    }

    /// Valid assembly with characters deleted, or replaced by or spliced
    /// with assembly fragments, never panics the assembler.
    #[test]
    fn mutated_assembly_assembles_or_errs(
        instrs in prop::collection::vec(logical_instr_strategy(), 1..40),
        class_seed in any::<u8>(),
        edits in prop::collection::vec((0u8..3, any::<usize>(), 0..asm_fragments().len()), 1..8),
    ) {
        use quest_isa::{asm, InstrClass, LogicalProgram};
        let classes = [
            InstrClass::Algorithmic,
            InstrClass::Distillation,
            InstrClass::Sync,
            InstrClass::CacheControl,
        ];
        let mut p = LogicalProgram::new();
        for (k, i) in instrs.iter().enumerate() {
            p.push(*i, classes[(k + class_seed as usize) % classes.len()]);
        }
        let fragments = asm_fragments();
        let mut chars: Vec<char> = asm::format(&p).chars().collect();
        for (op, at, frag) in edits {
            let at = at % (chars.len() + 1);
            let frag = fragments[frag].chars();
            match op {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => {
                    chars.splice(at..=at, frag);
                }
                _ => {
                    chars.splice(at..at, frag);
                }
            }
        }
        check_asm(&chars.into_iter().collect::<String>())?;
    }
}
