// Hamming(72,64) + overall parity SECDED.
//
// The classic memory-controller code: 64 payload bits -> 72 stored bits,
// correcting any single-bit error and detecting any double-bit error per
// word. With Gray-coded 4-bit cells (see ecc/gray.hpp) a 72-bit codeword
// occupies 18 cells and a one-level decode slip flips exactly one stored
// bit, which SECDED then corrects. It lives in the ecc module so the code
// catalog, the injection bridge and the policy explorer share one
// rank-ordered module.
#pragma once

#include <cstdint>
#include <optional>

namespace oxmlc::ecc {

struct SecdedWord {
  std::uint64_t data = 0;  // 64 payload bits
  std::uint8_t check = 0;  // 7 Hamming check bits + 1 overall parity
};

enum class EccStatus {
  kClean,            // no error detected
  kCorrectedSingle,  // one bit flipped and repaired
  kDetectedDouble,   // uncorrectable double error detected
};

struct EccDecodeResult {
  std::uint64_t data = 0;
  EccStatus status = EccStatus::kClean;
  // Bit position (0..71 in codeword numbering) of a corrected single error.
  std::optional<unsigned> corrected_bit;
};

// Encodes 64 payload bits into a SECDED word.
SecdedWord secded_encode(std::uint64_t data);

// Decodes a (possibly corrupted) SECDED word.
EccDecodeResult secded_decode(const SecdedWord& word);

}  // namespace oxmlc::ecc
