// ELF64 (x86-64) binary synthesis.
//
// ElfBuilder assembles a valid ELF executable or shared library from function
// bodies produced by the code generator (src/codegen). Function bodies carry
// symbolic relocations (PLT call / local call / rodata reference) that the
// builder resolves once the final layout is known, so the code generator never
// needs to know absolute addresses.
//
// The emitted binaries carry everything the study's analysis pipeline consumes
// in real distribution binaries: .text, .rodata, .plt + .rela.plt + .got.plt,
// .dynsym/.dynstr with imports and exports, DT_NEEDED entries, and a full
// .symtab giving function boundaries.

#ifndef LAPIS_SRC_ELF_ELF_BUILDER_H_
#define LAPIS_SRC_ELF_ELF_BUILDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/status.h"

namespace lapis::elf {

enum class BinaryType {
  kExecutable,     // ET_EXEC, base vaddr 0x400000
  kSharedLibrary,  // ET_DYN, base vaddr 0
};

// A fix-up within a function body: a rel32 field to be patched once layout
// is final. `offset` addresses the 4-byte displacement itself (not the
// opcode), relative to the function start.
struct TextReloc {
  enum class Kind {
    kPltCall,    // target = import index returned by AddImport()
    kLocalCall,  // target = function index returned by AddFunction()
    kRodataRef,  // target = byte offset into .rodata (rip-relative lea etc.)
  };
  Kind kind;
  uint32_t offset = 0;
  uint32_t target = 0;
};

struct FunctionDef {
  std::string name;
  std::vector<uint8_t> body;
  bool exported = false;  // also placed in .dynsym as a global definition
  std::vector<TextReloc> relocs;
};

class ElfBuilder {
 public:
  explicit ElfBuilder(BinaryType type) : type_(type) {}

  void SetSoname(std::string soname) { soname_ = std::move(soname); }
  void AddNeeded(std::string library) { needed_.push_back(std::move(library)); }

  // Registers an imported symbol; idempotent. Returns the PLT slot index.
  uint32_t AddImport(const std::string& symbol);

  // Appends a NUL-terminated string to .rodata; returns its offset within
  // the section.
  uint32_t AddRodataString(std::string_view s);

  // Adds a function (appended to .text in call order, 16-byte aligned).
  // Returns the function index used by TextReloc::kLocalCall.
  uint32_t AddFunction(FunctionDef fn);

  // Marks the executable entry point (required for kExecutable).
  Status SetEntryFunction(uint32_t function_index);

  size_t import_count() const { return imports_.size(); }
  size_t function_count() const { return functions_.size(); }

  // Produces the final ELF file bytes. The builder may be reused afterwards
  // (Build is const).
  Result<std::vector<uint8_t>> Build() const;

 private:
  BinaryType type_;
  std::string soname_;
  std::vector<std::string> needed_;
  std::vector<std::string> imports_;
  std::unordered_map<std::string, uint32_t> import_index_;
  std::vector<uint8_t> rodata_;
  std::vector<FunctionDef> functions_;
  int64_t entry_function_ = -1;
};

}  // namespace lapis::elf

#endif  // LAPIS_SRC_ELF_ELF_BUILDER_H_
