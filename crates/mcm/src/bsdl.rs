//! BSDL-style description generation.
//!
//! Boundary-Scan Description Language files are how 1149.1 hardware
//! advertises its test structures to board/module testers. This module
//! emits a (simplified but syntactically BSDL-shaped) description of the
//! MCM's scan resources from the same data structures the simulator
//! runs on — so the description is correct by construction, and a test
//! can parse it back and cross-check.

use crate::bscan::{Instruction, IDCODE};
use crate::substrate::{Die, McmAssembly};
use std::fmt::Write as _;

/// Generates the BSDL-like description of the module's Sea-of-Gates die:
/// the IR table, the IDCODE and the die's boundary register.
pub fn generate_bsdl(module: &McmAssembly, entity: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "entity {entity} is");
    let _ = writeln!(out, "attribute TAP_SCAN_IN    of TDI : signal is true;");
    let _ = writeln!(out, "attribute TAP_SCAN_OUT   of TDO : signal is true;");
    let _ = writeln!(out, "attribute TAP_SCAN_MODE  of TMS : signal is true;");
    let _ = writeln!(
        out,
        "attribute TAP_SCAN_CLOCK of TCK : signal is (4.0e6, BOTH);"
    );
    let _ = writeln!(
        out,
        "attribute INSTRUCTION_LENGTH of {entity}: entity is 4;"
    );
    let _ = writeln!(out, "attribute INSTRUCTION_OPCODE of {entity}: entity is");
    for (_, name, opcode) in Instruction::TABLE {
        let _ = writeln!(out, "  \"{name} ({opcode:04b})\" &");
    }
    let _ = writeln!(out, "  \"\";");
    let _ = writeln!(
        out,
        "attribute IDCODE_REGISTER of {entity}: entity is \"{IDCODE:032b}\";"
    );
    let register = module.boundary_register(Die::SeaOfGates);
    let n = register.len();
    let _ = writeln!(out, "attribute BOUNDARY_LENGTH of {entity}: entity is {n};");
    let _ = writeln!(out, "attribute BOUNDARY_REGISTER of {entity}: entity is");
    for (i, &net) in register.iter().enumerate() {
        let net = &module.nets()[net];
        let function = match net.driver {
            Die::SeaOfGates => "output3",
            _ => "input",
        };
        let _ = writeln!(out, "  \"{i} (BC_1, {}, {function}, X)\" &", net.name);
    }
    let _ = writeln!(out, "  \"\";");
    let _ = writeln!(out, "end {entity};");
    out
}

/// A parsed-back summary used to verify the generated description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsdlSummary {
    /// Declared boundary register length.
    pub boundary_length: usize,
    /// Cell names in index order.
    pub cell_names: Vec<String>,
    /// Declared instruction length.
    pub instruction_length: usize,
    /// The IDCODE parsed from the binary string.
    pub idcode: u32,
}

/// Parses a description produced by [`generate_bsdl`].
///
/// Returns `None` when a required attribute is missing or malformed —
/// this is a verifier for our own output, not a general BSDL parser.
pub fn parse_bsdl(text: &str) -> Option<BsdlSummary> {
    let mut boundary_length = None;
    let mut instruction_length = None;
    let mut idcode = None;
    let mut cell_names = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("attribute BOUNDARY_LENGTH") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            boundary_length = digits.parse().ok();
        } else if let Some(rest) = line.strip_prefix("attribute INSTRUCTION_LENGTH") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            instruction_length = digits.parse().ok();
        } else if line.starts_with("attribute IDCODE_REGISTER") {
            // Entity names are alphabetic, so the only binary digits on
            // the line are the 32-bit code.
            let bin: String = line.chars().filter(|c| *c == '0' || *c == '1').collect();
            if bin.len() >= 32 {
                idcode = u32::from_str_radix(&bin[bin.len() - 32..], 2).ok();
            }
        } else if line.starts_with('"') && line.contains("(BC_1,") {
            // `"i (BC_1, name, function, X)" &`
            let inner = line.trim_start_matches('"');
            let mut parts = inner.split(',').map(str::trim);
            let _index_and_cell = parts.next()?;
            let name = parts.next()?;
            cell_names.push(name.to_string());
        }
    }
    Some(BsdlSummary {
        boundary_length: boundary_length?,
        cell_names,
        instruction_length: instruction_length?,
        idcode: idcode?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_description_round_trips() {
        let module = McmAssembly::paper_module();
        let text = generate_bsdl(&module, "FLUXCOMP_MCM");
        let summary = parse_bsdl(&text).expect("parsable");
        let register = module.boundary_register(Die::SeaOfGates);
        assert_eq!(summary.boundary_length, register.len());
        assert_eq!(summary.instruction_length, 4);
        assert_eq!(summary.idcode, IDCODE);
        assert_eq!(summary.cell_names.len(), register.len());
        for (&net, name) in register.iter().zip(&summary.cell_names) {
            assert_eq!(&module.nets()[net].name, name);
        }
    }

    #[test]
    fn description_lists_all_instructions() {
        let text = generate_bsdl(&McmAssembly::paper_module(), "X");
        for (_, name, _) in Instruction::TABLE {
            assert!(text.contains(name), "{name} missing");
        }
        // BYPASS must advertise the all-ones opcode.
        assert!(text.contains("BYPASS (1111)"));
    }

    #[test]
    fn directions_follow_net_drivers() {
        let module = McmAssembly::paper_module();
        let text = generate_bsdl(&module, "X");
        // Excitation nets are SoG outputs; pickup nets are inputs.
        assert!(text.contains("exc_x_p, output3"));
        assert!(text.contains("pick_x_p, input"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_bsdl("not a bsdl at all").is_none());
    }
}
