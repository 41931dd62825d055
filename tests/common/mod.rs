//! Shared by the report gates (`pinned_discovery`, `one_pass_report`).

/// `functions` one-loop functions cycling through the four loop kinds of
/// the benchmark's `wide_program` (DOALL map, first-order recurrence,
/// scalar reduction, running max), one 16-word global each, `main` calling
/// every function once.
pub fn wide_program(functions: usize) -> String {
    let mut src = String::new();
    for i in 0..functions {
        src.push_str(&format!("global int g{i}[16];\n"));
    }
    for i in 0..functions {
        let (c, m) = (i * 7 % 97 + 1, i % 7 + 2);
        src.push_str(&format!("fn f{i}() {{\n"));
        src.push_str(&match i % 4 {
            0 => format!(
                "    for (int i = 0; i < 16; i = i + 1) {{\n        g{i}[i] = i * {m} + {c};\n    }}\n"
            ),
            1 => format!(
                "    g{i}[0] = {c};\n    for (int i = 1; i < 16; i = i + 1) {{\n        g{i}[i] = g{i}[i - 1] + {m};\n    }}\n"
            ),
            2 => format!(
                "    int s = 0;\n    for (int i = 0; i < 16; i = i + 1) {{\n        s = s + g{i}[i] * {m};\n    }}\n    g{i}[0] = s + {c};\n"
            ),
            _ => format!(
                "    int m = {c};\n    for (int i = 0; i < 16; i = i + 1) {{\n        if (g{i}[i] > m) {{\n            m = g{i}[i];\n        }}\n    }}\n    g{i}[0] = m;\n"
            ),
        });
        src.push_str("}\n");
    }
    src.push_str("fn main() {\n");
    for i in 0..functions {
        src.push_str(&format!("    f{i}();\n"));
    }
    src.push_str("}\n");
    src
}

/// The benchmark's `sparse_gather` shape at one pass, with fixed constants
/// instead of seed-drawn ones: a 2^19-word footprint, past
/// `EngineKind::AUTO_PERFECT_MAX_WORDS`, so `auto_for` picks the signature
/// engine, and 1.5 M accesses, every one delivered one by one — past
/// `ProfileConfig::ADAPTIVE_SPAWN_THRESHOLD`.
#[allow(dead_code)]
pub fn gather() -> String {
    "global int idx[65536];
global int data[524288];
global int out[524288];
global int s;
fn main() {
    for (int i = 0; i < 65536; i = i + 1) {
        idx[i] = (i * 24691 + 777) % 524288;
    }
    for (int k = 0; k < 65536; k = k + 1) {
        int j = idx[(k * 7) % 65536];
        out[j] = data[(j + k) % 524288] + out[j];
        s = s + out[j];
    }
}
"
    .to_string()
}
