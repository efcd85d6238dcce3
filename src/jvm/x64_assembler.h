#ifndef JAGUAR_JVM_X64_ASSEMBLER_H_
#define JAGUAR_JVM_X64_ASSEMBLER_H_

/// \file x64_assembler.h
/// A minimal x86-64 instruction encoder for the JagVM baseline JIT, plus
/// executable-memory management. Only the instructions the JIT emits are
/// supported; encodings follow the Intel SDM (REX/ModRM/SIB).
///
/// Labels provide forward references: `Jcc(cond, label)` records a rel32
/// fixup patched at `Bind(label)` time.

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace jaguar {
namespace jvm {

/// x86-64 general-purpose registers (encoding values).
enum class Reg : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// Condition codes (the `cc` in Jcc/SETcc encodings).
enum class Cond : uint8_t {
  kO = 0x0, kNo = 0x1, kB = 0x2, kAe = 0x3, kE = 0x4, kNe = 0x5,
  kBe = 0x6, kA = 0x7, kS = 0x8, kNs = 0x9,
  kL = 0xC, kGe = 0xD, kLe = 0xE, kG = 0xF,
};

class X64Assembler {
 public:
  using LabelId = uint32_t;

  LabelId NewLabel();
  void Bind(LabelId label);

  /// Pads with multi-byte NOPs to the given power-of-two boundary (loop-head
  /// alignment).
  void AlignTo(size_t boundary);

  // -- Moves ---------------------------------------------------------------
  void MovRegImm64(Reg dst, int64_t imm);
  void MovRegReg(Reg dst, Reg src);
  void MovRegMem(Reg dst, Reg base, int32_t disp);          ///< dst = [base+disp]
  void MovMemReg(Reg base, int32_t disp, Reg src);          ///< [base+disp] = src
  /// dst = zero-extended byte at [base + index*1 + disp].
  void MovzxRegByte(Reg dst, Reg base, Reg index, int32_t disp);
  /// byte [base + index*1 + disp] = low 8 bits of src.
  void MovByteMemReg(Reg base, Reg index, int32_t disp, Reg src);
  /// dst = qword [base + index*8 + disp].
  void MovRegMemIndex8(Reg dst, Reg base, Reg index, int32_t disp);
  /// qword [base + index*8 + disp] = src.
  void MovMemIndex8Reg(Reg base, Reg index, int32_t disp, Reg src);
  void LeaRegMem(Reg dst, Reg base, int32_t disp);

  // -- ALU -----------------------------------------------------------------
  void AddRegReg(Reg dst, Reg src);
  void SubRegReg(Reg dst, Reg src);
  void AndRegReg(Reg dst, Reg src);
  void OrRegReg(Reg dst, Reg src);
  void XorRegReg(Reg dst, Reg src);
  void ImulRegReg(Reg dst, Reg src);
  void NegReg(Reg r);
  void AddRegImm32(Reg dst, int32_t imm);
  void SubRegImm32(Reg dst, int32_t imm);
  void AndRegImm32(Reg dst, int32_t imm);
  void OrRegImm32(Reg dst, int32_t imm);
  void XorRegImm32(Reg dst, int32_t imm);
  void CmpRegReg(Reg a, Reg b);
  void CmpRegImm32(Reg a, int32_t imm);
  /// cmp a, qword [base+disp].
  void CmpRegMem(Reg a, Reg base, int32_t disp);
  /// cmp qword [base+disp], imm.
  void CmpMemImm32(Reg base, int32_t disp, int32_t imm);
  void TestRegReg(Reg a, Reg b);
  void Cqo();            ///< Sign-extend RAX into RDX:RAX.
  void IdivReg(Reg r);   ///< RAX = RDX:RAX / r; RDX = remainder.
  void ShlRegCl(Reg r);
  void SarRegCl(Reg r);
  void ShrRegCl(Reg r);

  // -- Control flow ----------------------------------------------------------
  void Jmp(LabelId label);
  void Jcc(Cond cond, LabelId label);
  void CallReg(Reg r);
  void PushReg(Reg r);
  void PopReg(Reg r);
  void Ret();

  /// \return Finalized code bytes. All labels must be bound.
  Result<std::vector<uint8_t>> Finalize();

  size_t size() const { return code_.size(); }

 private:
  void Emit8(uint8_t b) { code_.push_back(b); }
  void Emit32(uint32_t v);
  void Emit64(uint64_t v);
  /// REX prefix for a reg-reg operation (W=1).
  void Rex(Reg reg, Reg rm);
  void RexIndex(Reg reg, Reg index, Reg base, bool wide);
  /// ModRM with register-direct addressing.
  void ModRmReg(Reg reg, Reg rm);
  /// ModRM+SIB+disp for [base+disp] addressing.
  void ModRmMem(Reg reg, Reg base, int32_t disp);
  /// ModRM+SIB+disp for [base + index*scale + disp].
  void ModRmSib(Reg reg, Reg base, Reg index, uint8_t scale_log2,
                int32_t disp);

  struct Fixup {
    LabelId label;
    size_t offset;  // position of the rel32 field
  };

  std::vector<uint8_t> code_;
  std::vector<int64_t> label_pos_;  // -1 == unbound
  std::vector<Fixup> fixups_;
};

/// Page-aligned executable memory holding finalized code.
class ExecutableMemory {
 public:
  static Result<ExecutableMemory> Create(const std::vector<uint8_t>& code);
  ExecutableMemory() = default;
  ~ExecutableMemory();

  ExecutableMemory(ExecutableMemory&& o) noexcept { *this = std::move(o); }
  ExecutableMemory& operator=(ExecutableMemory&& o) noexcept;
  ExecutableMemory(const ExecutableMemory&) = delete;
  ExecutableMemory& operator=(const ExecutableMemory&) = delete;

  const void* entry() const { return mem_; }
  size_t size() const { return size_; }

 private:
  void* mem_ = nullptr;
  size_t size_ = 0;
};

}  // namespace jvm
}  // namespace jaguar

#endif  // JAGUAR_JVM_X64_ASSEMBLER_H_
