#include "jvm/x64_assembler.h"

#include <sys/mman.h>

#include <cstring>

#include "common/string_util.h"

namespace jaguar {
namespace jvm {

namespace {
inline uint8_t Low3(Reg r) { return static_cast<uint8_t>(r) & 7; }
inline bool Hi(Reg r) { return static_cast<uint8_t>(r) >= 8; }
}  // namespace

void X64Assembler::Emit32(uint32_t v) {
  for (int i = 0; i < 4; ++i) Emit8(static_cast<uint8_t>(v >> (8 * i)));
}
void X64Assembler::Emit64(uint64_t v) {
  for (int i = 0; i < 8; ++i) Emit8(static_cast<uint8_t>(v >> (8 * i)));
}

void X64Assembler::Rex(Reg reg, Reg rm) {
  Emit8(0x48 | (Hi(reg) ? 4 : 0) | (Hi(rm) ? 1 : 0));
}

void X64Assembler::RexIndex(Reg reg, Reg index, Reg base, bool wide) {
  uint8_t rex = 0x40 | (wide ? 8 : 0) | (Hi(reg) ? 4 : 0) |
                (Hi(index) ? 2 : 0) | (Hi(base) ? 1 : 0);
  Emit8(rex);
}

void X64Assembler::ModRmReg(Reg reg, Reg rm) {
  Emit8(0xC0 | (Low3(reg) << 3) | Low3(rm));
}

void X64Assembler::ModRmMem(Reg reg, Reg base, int32_t disp) {
  // mod=10 (disp32) always; RSP/R12 base needs a SIB byte.
  if (Low3(base) == 4) {
    Emit8(0x80 | (Low3(reg) << 3) | 4);
    Emit8(0x24);  // SIB: scale=0, index=none, base=rsp/r12
  } else {
    Emit8(0x80 | (Low3(reg) << 3) | Low3(base));
  }
  Emit32(static_cast<uint32_t>(disp));
}

void X64Assembler::ModRmSib(Reg reg, Reg base, Reg index, uint8_t scale_log2,
                            int32_t disp) {
  Emit8(0x80 | (Low3(reg) << 3) | 4);  // mod=10, rm=100 -> SIB
  Emit8(static_cast<uint8_t>((scale_log2 << 6) | (Low3(index) << 3) |
                             Low3(base)));
  Emit32(static_cast<uint32_t>(disp));
}

X64Assembler::LabelId X64Assembler::NewLabel() {
  label_pos_.push_back(-1);
  return static_cast<LabelId>(label_pos_.size() - 1);
}

void X64Assembler::Bind(LabelId label) {
  label_pos_[label] = static_cast<int64_t>(code_.size());
}

void X64Assembler::AlignTo(size_t boundary) {
  // Intel-recommended multi-byte NOP encodings, longest first.
  static const uint8_t kNops[][9] = {
      {0x90},
      {0x66, 0x90},
      {0x0F, 0x1F, 0x00},
      {0x0F, 0x1F, 0x40, 0x00},
      {0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
      {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  size_t pad = (boundary - (code_.size() & (boundary - 1))) & (boundary - 1);
  while (pad > 0) {
    size_t chunk = pad > 9 ? 9 : pad;
    for (size_t i = 0; i < chunk; ++i) Emit8(kNops[chunk - 1][i]);
    pad -= chunk;
  }
}

void X64Assembler::MovRegImm64(Reg dst, int64_t imm) {
  Emit8(0x48 | (Hi(dst) ? 1 : 0));
  Emit8(0xB8 | Low3(dst));
  Emit64(static_cast<uint64_t>(imm));
}

void X64Assembler::MovRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x89);
  ModRmReg(src, dst);
}

void X64Assembler::MovRegMem(Reg dst, Reg base, int32_t disp) {
  Rex(dst, base);
  Emit8(0x8B);
  ModRmMem(dst, base, disp);
}

void X64Assembler::MovMemReg(Reg base, int32_t disp, Reg src) {
  Rex(src, base);
  Emit8(0x89);
  ModRmMem(src, base, disp);
}

void X64Assembler::MovzxRegByte(Reg dst, Reg base, Reg index, int32_t disp) {
  RexIndex(dst, index, base, /*wide=*/true);
  Emit8(0x0F);
  Emit8(0xB6);
  ModRmSib(dst, base, index, 0, disp);
}

void X64Assembler::MovByteMemReg(Reg base, Reg index, int32_t disp, Reg src) {
  // REX (even 0x40) selects SIL/DIL-style low bytes for RSI/RDI.
  RexIndex(src, index, base, /*wide=*/false);
  Emit8(0x88);
  ModRmSib(src, base, index, 0, disp);
}

void X64Assembler::MovRegMemIndex8(Reg dst, Reg base, Reg index,
                                   int32_t disp) {
  RexIndex(dst, index, base, /*wide=*/true);
  Emit8(0x8B);
  ModRmSib(dst, base, index, 3, disp);
}

void X64Assembler::MovMemIndex8Reg(Reg base, Reg index, int32_t disp,
                                   Reg src) {
  RexIndex(src, index, base, /*wide=*/true);
  Emit8(0x89);
  ModRmSib(src, base, index, 3, disp);
}

void X64Assembler::LeaRegMem(Reg dst, Reg base, int32_t disp) {
  Rex(dst, base);
  Emit8(0x8D);
  ModRmMem(dst, base, disp);
}

void X64Assembler::AddRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x01);
  ModRmReg(src, dst);
}
void X64Assembler::SubRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x29);
  ModRmReg(src, dst);
}
void X64Assembler::AndRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x21);
  ModRmReg(src, dst);
}
void X64Assembler::OrRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x09);
  ModRmReg(src, dst);
}
void X64Assembler::XorRegReg(Reg dst, Reg src) {
  Rex(src, dst);
  Emit8(0x31);
  ModRmReg(src, dst);
}
void X64Assembler::ImulRegReg(Reg dst, Reg src) {
  Rex(dst, src);
  Emit8(0x0F);
  Emit8(0xAF);
  ModRmReg(dst, src);
}
void X64Assembler::NegReg(Reg r) {
  Rex(Reg::RAX, r);
  Emit8(0xF7);
  Emit8(0xD8 | Low3(r));
}
void X64Assembler::AddRegImm32(Reg dst, int32_t imm) {
  Rex(Reg::RAX, dst);
  Emit8(0x81);
  Emit8(0xC0 | Low3(dst));
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::SubRegImm32(Reg dst, int32_t imm) {
  Rex(Reg::RAX, dst);
  Emit8(0x81);
  Emit8(0xE8 | Low3(dst));
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::AndRegImm32(Reg dst, int32_t imm) {
  Rex(Reg::RAX, dst);
  Emit8(0x81);
  Emit8(0xE0 | Low3(dst));  // /4
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::OrRegImm32(Reg dst, int32_t imm) {
  Rex(Reg::RAX, dst);
  Emit8(0x81);
  Emit8(0xC8 | Low3(dst));  // /1
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::XorRegImm32(Reg dst, int32_t imm) {
  Rex(Reg::RAX, dst);
  Emit8(0x81);
  Emit8(0xF0 | Low3(dst));  // /6
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::CmpRegReg(Reg a, Reg b) {
  Rex(b, a);
  Emit8(0x39);
  ModRmReg(b, a);
}
void X64Assembler::CmpRegImm32(Reg a, int32_t imm) {
  Rex(Reg::RAX, a);
  Emit8(0x81);
  Emit8(0xF8 | Low3(a));
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::CmpRegMem(Reg a, Reg base, int32_t disp) {
  Rex(a, base);
  Emit8(0x3B);
  ModRmMem(a, base, disp);
}
void X64Assembler::CmpMemImm32(Reg base, int32_t disp, int32_t imm) {
  Rex(Reg::RAX, base);
  Emit8(0x81);
  ModRmMem(static_cast<Reg>(7), base, disp);  // /7 = cmp
  Emit32(static_cast<uint32_t>(imm));
}
void X64Assembler::TestRegReg(Reg a, Reg b) {
  Rex(b, a);
  Emit8(0x85);
  ModRmReg(b, a);
}
void X64Assembler::Cqo() {
  Emit8(0x48);
  Emit8(0x99);
}
void X64Assembler::IdivReg(Reg r) {
  Rex(Reg::RAX, r);
  Emit8(0xF7);
  Emit8(0xF8 | Low3(r));
}
void X64Assembler::ShlRegCl(Reg r) {
  Rex(Reg::RAX, r);
  Emit8(0xD3);
  Emit8(0xE0 | Low3(r));
}
void X64Assembler::SarRegCl(Reg r) {
  Rex(Reg::RAX, r);
  Emit8(0xD3);
  Emit8(0xF8 | Low3(r));
}
void X64Assembler::ShrRegCl(Reg r) {
  Rex(Reg::RAX, r);
  Emit8(0xD3);
  Emit8(0xE8 | Low3(r));
}

void X64Assembler::Jmp(LabelId label) {
  Emit8(0xE9);
  fixups_.push_back({label, code_.size()});
  Emit32(0);
}

void X64Assembler::Jcc(Cond cond, LabelId label) {
  Emit8(0x0F);
  Emit8(0x80 | static_cast<uint8_t>(cond));
  fixups_.push_back({label, code_.size()});
  Emit32(0);
}

void X64Assembler::CallReg(Reg r) {
  if (Hi(r)) Emit8(0x41);
  Emit8(0xFF);
  Emit8(0xD0 | Low3(r));
}

void X64Assembler::PushReg(Reg r) {
  if (Hi(r)) Emit8(0x41);
  Emit8(0x50 | Low3(r));
}

void X64Assembler::PopReg(Reg r) {
  if (Hi(r)) Emit8(0x41);
  Emit8(0x58 | Low3(r));
}

void X64Assembler::Ret() { Emit8(0xC3); }

Result<std::vector<uint8_t>> X64Assembler::Finalize() {
  for (const Fixup& fix : fixups_) {
    int64_t target = label_pos_[fix.label];
    if (target < 0) return Internal("unbound JIT label");
    int64_t rel = target - static_cast<int64_t>(fix.offset) - 4;
    if (rel < INT32_MIN || rel > INT32_MAX) {
      return Internal("JIT branch out of rel32 range");
    }
    uint32_t v = static_cast<uint32_t>(static_cast<int32_t>(rel));
    for (int i = 0; i < 4; ++i) {
      code_[fix.offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  return code_;
}

ExecutableMemory::~ExecutableMemory() {
  if (mem_ != nullptr) ::munmap(mem_, size_);
}

ExecutableMemory& ExecutableMemory::operator=(ExecutableMemory&& o) noexcept {
  if (this != &o) {
    if (mem_ != nullptr) ::munmap(mem_, size_);
    mem_ = o.mem_;
    size_ = o.size_;
    o.mem_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

Result<ExecutableMemory> ExecutableMemory::Create(
    const std::vector<uint8_t>& code) {
  if (code.empty()) return InvalidArgument("empty code");
  size_t size = (code.size() + 4095) & ~size_t{4095};
  void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return IoError("mmap failed for JIT code");
  std::memcpy(mem, code.data(), code.size());
  if (::mprotect(mem, size, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(mem, size);
    return IoError("mprotect failed for JIT code");
  }
  ExecutableMemory out;
  out.mem_ = mem;
  out.size_ = size;
  return out;
}

}  // namespace jvm
}  // namespace jaguar
