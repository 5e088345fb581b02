//! Hand-rolled property tests for the external-trace parser.
//!
//! These use the workspace's own deterministic [`Rng`] to drive two
//! properties over thousands of generated inputs:
//!
//! 1. **Totality** — `TraceFileWorkload::from_reader` never panics, for
//!    arbitrary byte soup (including invalid UTF-8) and for adversarial
//!    token soup assembled from near-valid fragments. It returns a
//!    structured [`ParseTraceError`] or a usable workload, nothing else.
//! 2. **Round-trip identity** — rendering any instruction sequence with
//!    [`render_instr`] and re-parsing it reproduces the sequence exactly,
//!    for every [`Instr`] variant.
//!
//! Everything is seeded, so a failure reproduces bit-for-bit.

use tk_sim::trace::{Instr, MemRef, Workload};
use tk_workloads::rng::Rng;
use tk_workloads::{render_instr, TraceFileWorkload};

/// Arbitrary byte soup — mostly printable, salted with newlines, NULs and
/// invalid UTF-8 continuation bytes.
fn byte_soup(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| match rng.below(10) {
            0 => b'\n',
            1 => b' ',
            2 => b'#',
            3 => 0x00,
            4 => 0xFF, // never valid in UTF-8
            5 => 0xC3, // dangling continuation-start
            _ => (rng.below(94) + 33) as u8,
        })
        .collect()
}

/// Adversarial *token* soup: lines built from fragments that sit right at
/// the parser's decision points (valid kinds, bad hex, missing fields,
/// comments, 0x prefixes, trailing junk).
fn token_soup(rng: &mut Rng) -> String {
    const FRAGMENTS: &[&str] = &[
        "O",
        "o",
        "L",
        "c",
        "S",
        "P",
        "X",
        "LL",
        "0x",
        "0x10",
        "zzz",
        "ffffffffffffffff",
        "10000000000000000", // overflows u64
        "#",
        "# comment",
        "",
        " ",
        "\t",
        "-1",
        "4 0 0",
        "0xgg",
    ];
    let lines = rng.below(20) + 1;
    let mut text = String::new();
    for _ in 0..lines {
        let tokens = rng.below(4);
        for t in 0..=tokens {
            if t > 0 {
                text.push(if rng.chance(1, 8) { '\t' } else { ' ' });
            }
            text.push_str(FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]);
        }
        text.push('\n');
    }
    text
}

/// A uniformly random instruction, covering every variant.
fn arbitrary_instr(rng: &mut Rng) -> Instr {
    let mref = MemRef::new(
        timekeeping::Addr::new(rng.next_u64() >> rng.below(64) as u32),
        timekeeping::Pc::new(rng.next_u64() >> rng.below(64) as u32),
    );
    match rng.below(5) {
        0 => Instr::Op,
        1 => Instr::Load(mref),
        2 => Instr::ChainedLoad(mref),
        3 => Instr::Store(mref),
        _ => Instr::SwPrefetch(mref),
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_parser() {
    let mut rng = Rng::new(0x7ace_f11e);
    for case in 0..2_000u64 {
        let len = rng.below(200) as usize;
        let soup = byte_soup(&mut rng, len);
        // Ok or Err are both fine; panicking is the only failure.
        let result = TraceFileWorkload::from_reader("soup", &soup[..]);
        if let Err(e) = result {
            // The error is structured: it renders and carries a line
            // number within the input (0 marks whole-trace errors).
            let lines = soup.iter().filter(|&&b| b == b'\n').count() + 1;
            assert!(
                e.line() <= lines,
                "case {case}: line {} of {lines}",
                e.line()
            );
            assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn adversarial_token_soup_never_panics() {
    let mut rng = Rng::new(0x50da_ca11);
    for _ in 0..2_000u64 {
        let text = token_soup(&mut rng);
        match TraceFileWorkload::from_reader("tokens", text.as_bytes()) {
            Ok(mut w) => {
                assert!(!w.is_empty(), "empty traces must be rejected");
                // A parsed workload must actually be drivable.
                for _ in 0..w.len() * 2 {
                    let _ = w.next_instr();
                }
            }
            Err(e) => assert!(e.line() <= text.lines().count()),
        }
    }
}

#[test]
fn render_parse_round_trip_is_identity() {
    let mut rng = Rng::new(0x0b5e_55ed);
    for case in 0..500u64 {
        let n = rng.below(64) as usize + 1;
        let instrs: Vec<Instr> = (0..n).map(|_| arbitrary_instr(&mut rng)).collect();
        let text: String = instrs.iter().map(|i| render_instr(i) + "\n").collect();
        let mut w = TraceFileWorkload::from_reader("rt", text.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: rendered trace must parse: {e}\n{text}"));
        assert_eq!(w.len(), instrs.len(), "case {case}");
        for (k, want) in instrs.iter().enumerate() {
            assert_eq!(w.next_instr(), *want, "case {case}, instr {k}");
        }
    }
}

#[test]
fn workload_render_round_trips_through_itself() {
    let text = "O\nL 7f001040 400a\nC 7f002000 400e\nS 7f001048 4012\nP 7f003000 4016\n";
    let w = TraceFileWorkload::from_reader("canon", text.as_bytes()).unwrap();
    let rendered = w.render();
    // The canonical form is stable: render is idempotent through a parse.
    let w2 = TraceFileWorkload::from_reader("canon", rendered.as_bytes()).unwrap();
    assert_eq!(w2.render(), rendered);
    // And for already-canonical text (lowercase hex, single spaces, no
    // comments), render reproduces the input exactly.
    assert_eq!(rendered, text);
}

#[test]
fn structured_errors_replace_the_old_panics() {
    // Regression for the `.expect("nonempty line")` that used to live in
    // parse_line: every malformed shape comes back as Err, with the
    // offending line number.
    for (text, needle, line) in [
        ("L 10 1\nQ 20 2\n", "unknown event kind", 2),
        ("O extra\n", "trailing token", 1),
        ("L 10 1 junk\n", "trailing token", 1),
        ("L 10000000000000000 1\n", "bad address", 1),
        ("S 10\n", "missing pc", 1),
        ("P\n", "missing address", 1),
    ] {
        let e = TraceFileWorkload::from_reader("t", text.as_bytes())
            .expect_err(&format!("{text:?} must be rejected"));
        assert!(e.to_string().contains(needle), "{text:?} -> {e}");
        assert_eq!(e.line(), line, "{text:?}");
    }
}

/// Gzip-framed byte soup: a valid member header followed by garbage.
/// The streaming decoder must surface a structured error (or, for the
/// rare soup that decodes, a usable workload) — never a panic. Line
/// numbers are meaningless inside a corrupt compressed stream, so only
/// totality is asserted.
#[test]
fn gzip_byte_soup_never_panics() {
    let mut rng = Rng::new(0x621b_50af);
    for _ in 0..2_000u64 {
        let len = rng.below(200) as usize;
        let mut soup = vec![0x1f, 0x8b]; // the gzip magic the sniffer keys on
        soup.extend(byte_soup(&mut rng, len));
        if let Err(e) = TraceFileWorkload::from_reader("gz-soup", &soup[..]) {
            assert!(!e.to_string().is_empty());
        }
    }
}

/// Truncating a valid gzip member at every byte boundary never panics,
/// and the untruncated stream still parses.
#[test]
fn truncated_gzip_members_never_panic() {
    let text = "L 1000 40\nS 1020 44\nO\nC 2000 48\nP 3000 4c\n".repeat(40);
    let gz = tk_workloads::gzip::gzip_store(text.as_bytes());
    for cut in 1..gz.len() {
        if let Err(e) = TraceFileWorkload::from_reader("cut", &gz[..cut]) {
            assert!(!e.to_string().is_empty(), "cut at {cut}");
        }
    }
    let w = TraceFileWorkload::from_reader("full", &gz[..]).expect("untruncated member parses");
    assert_eq!(w.len(), 200);
    assert!(w.is_compressed());
}

/// Render→gzip→parse is still the identity, and compression is
/// invisible to the content digest.
#[test]
fn render_parse_identity_survives_gzip() {
    let mut rng = Rng::new(0x9b1e_55ed);
    for case in 0..200u64 {
        let n = rng.below(64) as usize + 1;
        let instrs: Vec<Instr> = (0..n).map(|_| arbitrary_instr(&mut rng)).collect();
        let text: String = instrs.iter().map(|i| render_instr(i) + "\n").collect();
        let plain = TraceFileWorkload::from_reader("rt", text.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: plain parse: {e}"));
        let gz = tk_workloads::gzip::gzip_store(text.as_bytes());
        let mut w = TraceFileWorkload::from_reader("rt", &gz[..])
            .unwrap_or_else(|e| panic!("case {case}: gzip parse: {e}"));
        assert!(w.is_compressed(), "case {case}");
        assert_eq!(w.len(), instrs.len(), "case {case}");
        assert_eq!(
            w.digest(),
            plain.digest(),
            "case {case}: digest must ignore compression"
        );
        for (k, want) in instrs.iter().enumerate() {
            assert_eq!(w.next_instr(), *want, "case {case}, instr {k}");
        }
    }
}

/// ChampSim export→import reproduces the stream up to the documented
/// lossy mapping: chained loads and software prefetches degrade to
/// plain loads, everything else is exact.
#[test]
fn champsim_round_trip_is_identity_up_to_the_lossy_mapping() {
    use tk_workloads::champsim;
    let mut rng = Rng::new(0xc4a9_5131);
    for case in 0..200u64 {
        let n = rng.below(64) as usize + 1;
        let instrs: Vec<Instr> = (0..n).map(|_| arbitrary_instr(&mut rng)).collect();
        let bytes = champsim::render_trace(&instrs);
        let mut w = TraceFileWorkload::from_reader_fmt(
            "cs",
            &bytes[..],
            tk_workloads::TraceFormat::Champsim,
        )
        .unwrap_or_else(|e| panic!("case {case}: rendered champsim must parse: {e}"));
        assert_eq!(w.len(), instrs.len(), "case {case}");
        for (k, want) in instrs.iter().enumerate() {
            let want = match *want {
                Instr::ChainedLoad(m) | Instr::SwPrefetch(m) => Instr::Load(m),
                other => other,
            };
            assert_eq!(w.next_instr(), want, "case {case}, instr {k}");
        }
    }
}

/// ChampSim parse failures mirror `ParseTraceError::line` for binary
/// input: the error carries the 1-based record index and the absolute
/// byte offset of the offending record.
#[test]
fn champsim_errors_locate_the_offending_record() {
    use tk_workloads::champsim::{self, RECORD_BYTES};
    let good: Vec<Instr> = vec![
        Instr::Load(MemRef::new(
            timekeeping::Addr::new(0x1000),
            timekeeping::Pc::new(0x40),
        )),
        Instr::Op,
        Instr::Store(MemRef::new(
            timekeeping::Addr::new(0x2000),
            timekeeping::Pc::new(0x44),
        )),
    ];
    let mut bytes = champsim::render_trace(&good);

    // An out-of-range kind byte in the third record.
    bytes[2 * RECORD_BYTES] = 7;
    let e =
        TraceFileWorkload::from_reader_fmt("cs", &bytes[..], tk_workloads::TraceFormat::Champsim)
            .expect_err("kind byte 7 must be rejected");
    assert!(e.to_string().contains("kind byte 7"), "{e}");
    assert_eq!(e.record(), Some(3));
    assert_eq!(e.byte_offset(), Some(2 * RECORD_BYTES as u64));
    assert_eq!(e.line(), 0, "binary errors report record, not line");

    // A truncated trailing record.
    bytes[2 * RECORD_BYTES] = 1;
    bytes.truncate(3 * RECORD_BYTES - 5);
    let e =
        TraceFileWorkload::from_reader_fmt("cs", &bytes[..], tk_workloads::TraceFormat::Champsim)
            .expect_err("partial trailing record must be rejected");
    assert!(e.to_string().contains("truncated record"), "{e}");
    assert_eq!(e.record(), Some(3));
    assert_eq!(e.byte_offset(), Some(2 * RECORD_BYTES as u64));
}

/// The content digest names the decoded instruction stream, not its
/// encoding: the same stream serialized as text, gzipped text, and
/// ChampSim binary digests identically.
#[test]
fn digest_is_format_and_compression_independent() {
    use tk_workloads::champsim;
    let mut rng = Rng::new(0xd16e_57ab);
    // Only the lossless subset: the champsim leg would degrade C/P.
    let instrs: Vec<Instr> = (0..256)
        .map(|_| loop {
            match arbitrary_instr(&mut rng) {
                Instr::ChainedLoad(_) | Instr::SwPrefetch(_) => continue,
                i => break i,
            }
        })
        .collect();
    let text: String = instrs.iter().map(|i| render_instr(i) + "\n").collect();
    let gz = tk_workloads::gzip::gzip_store(text.as_bytes());
    let bin = champsim::render_trace(&instrs);

    let d_text = TraceFileWorkload::from_reader("t", text.as_bytes())
        .unwrap()
        .digest();
    let d_gz = TraceFileWorkload::from_reader("t", &gz[..])
        .unwrap()
        .digest();
    let d_bin =
        TraceFileWorkload::from_reader_fmt("t", &bin[..], tk_workloads::TraceFormat::Champsim)
            .unwrap()
            .digest();
    assert_eq!(d_text, d_gz);
    assert_eq!(d_text, d_bin);
}
