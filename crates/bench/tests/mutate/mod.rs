//! Seeded byte-level mutations of KISS-C source, shared by the front-end
//! tests.

/// splitmix64: a seeded, dependency-free generator, so the inputs never
/// change under a dependency upgrade.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Byte offsets just past a `;` or `}` or at a `{`: where items and
/// statements meet.
pub fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b';' | b'}' => out.push(i + 1),
            b'{' => out.push(i),
            _ => {}
        }
    }
    out
}

/// One to three edits of `base`: byte deletions, insertions and
/// duplications; `{`, `}`, `;`, `/*` or `//` inserted anywhere or at an
/// item boundary; or non-ASCII text. A split UTF-8 sequence becomes
/// U+FFFD.
pub fn mutate(rng: &mut Rng, base: &str) -> String {
    const NON_ASCII: [&str; 6] = ["é", "\u{a0}", "→", "\u{2028}", "日本", "/* ü */"];
    const ASCII: &[u8] = b"abxyz_019 \n\t(){}[];,=<>!&|*-+%/#@";
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let edges = boundaries(&bytes);
        let pos = if rng.below(2) == 0 || edges.is_empty() {
            rng.below(bytes.len() + 1)
        } else {
            edges[rng.below(edges.len())]
        };
        let insert = |bytes: &mut Vec<u8>, text: &[u8]| {
            bytes.splice(pos..pos, text.iter().copied());
        };
        match rng.below(9) {
            0 => {
                let end = (pos + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(pos.min(end)..end);
            }
            1 => {
                let text: Vec<u8> = (0..1 + rng.below(4))
                    .map(|_| ASCII[rng.below(ASCII.len())])
                    .collect();
                insert(&mut bytes, &text);
            }
            2 => {
                let end = (pos + 1 + rng.below(40)).min(bytes.len());
                let dup = bytes[pos.min(end)..end].to_vec();
                insert(&mut bytes, &dup);
            }
            3 => insert(&mut bytes, b"{"),
            4 => insert(&mut bytes, b"}"),
            5 => insert(&mut bytes, b";"),
            6 => insert(&mut bytes, b"/*"),
            7 => insert(&mut bytes, b"//"),
            _ => insert(&mut bytes, NON_ASCII[rng.below(NON_ASCII.len())].as_bytes()),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The bluetooth models' sources.
pub const BLUETOOTH: [&str; 3] = [
    kiss_drivers::bluetooth::BLUETOOTH_BUGGY,
    kiss_drivers::bluetooth::BLUETOOTH_FIXED,
    kiss_drivers::bluetooth::FAKEMODEM_REFCOUNT,
];

/// The programs mutations start from: the samples, the bluetooth
/// models and one served entry per driver (the first of its naive
/// fields).
pub fn bases() -> Vec<String> {
    let mut bases: Vec<String> = kiss_samples::all()
        .iter()
        .map(|s| s.source.to_string())
        .collect();
    bases.extend(BLUETOOTH.iter().map(|s| s.to_string()));
    let mut drivers: Vec<String> = Vec::new();
    for entry in kiss_drivers::corpus_batch(false) {
        let driver = entry
            .label
            .split_once('/')
            .expect("labels are driver/field")
            .0;
        if !drivers.iter().any(|d| d == driver) {
            drivers.push(driver.to_string());
            bases.push(entry.source);
        }
    }
    bases
}

/// `src` printed by the pretty-printer with every newline turned into a
/// space: one line, comment-free, so every item and statement after the
/// first starts mid-line and its column counts.
pub fn one_line(src: &str) -> String {
    let program = kiss_lang::parse_and_lower(src).expect("bases parse");
    kiss_lang::pretty::print_program(&program).replace('\n', " ")
}
