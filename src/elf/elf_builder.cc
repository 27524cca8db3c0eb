#include "src/elf/elf_builder.h"

#include <algorithm>

#include "src/elf/elf_defs.h"
#include "src/util/bytes.h"

namespace lapis::elf {

namespace {

constexpr uint64_t kExecBase = 0x400000;
constexpr uint64_t kPltStubSize = 16;
constexpr uint64_t kGotEntrySize = 8;

// Accumulates a string table (index 0 is the empty string).
class StringTable {
 public:
  StringTable() { data_.push_back(0); }

  uint32_t Add(std::string_view s) {
    if (s.empty()) {
      return 0;
    }
    auto it = offsets_.find(std::string(s));
    if (it != offsets_.end()) {
      return it->second;
    }
    uint32_t off = static_cast<uint32_t>(data_.size());
    data_.insert(data_.end(), s.begin(), s.end());
    data_.push_back(0);
    offsets_.emplace(std::string(s), off);
    return off;
  }

  const std::vector<uint8_t>& data() const { return data_; }

 private:
  std::vector<uint8_t> data_;
  std::unordered_map<std::string, uint32_t> offsets_;
};

void WriteSym(ByteWriter& w, uint32_t name, uint8_t info, uint16_t shndx,
              uint64_t value, uint64_t size) {
  w.PutU32(name);
  w.PutU8(info);
  w.PutU8(0);  // st_other
  w.PutU16(shndx);
  w.PutU64(value);
  w.PutU64(size);
}

struct SectionPlan {
  std::string name;
  uint32_t type = kShtProgbits;
  uint64_t flags = 0;
  uint64_t align = 8;
  uint64_t entsize = 0;
  uint32_t link = 0;
  std::vector<uint8_t> data;
  // Filled during layout:
  uint64_t offset = 0;
  uint64_t addr = 0;
};

}  // namespace

uint32_t ElfBuilder::AddImport(const std::string& symbol) {
  auto it = import_index_.find(symbol);
  if (it != import_index_.end()) {
    return it->second;
  }
  uint32_t index = static_cast<uint32_t>(imports_.size());
  imports_.push_back(symbol);
  import_index_.emplace(symbol, index);
  return index;
}

uint32_t ElfBuilder::AddRodataString(std::string_view s) {
  uint32_t off = static_cast<uint32_t>(rodata_.size());
  rodata_.insert(rodata_.end(), s.begin(), s.end());
  rodata_.push_back(0);
  return off;
}

uint32_t ElfBuilder::AddFunction(FunctionDef fn) {
  functions_.push_back(std::move(fn));
  return static_cast<uint32_t>(functions_.size() - 1);
}

Status ElfBuilder::SetEntryFunction(uint32_t function_index) {
  if (function_index >= functions_.size()) {
    return InvalidArgumentError("entry function index out of range");
  }
  entry_function_ = function_index;
  return Status::Ok();
}

Result<std::vector<uint8_t>> ElfBuilder::Build() const {
  if (type_ == BinaryType::kExecutable && entry_function_ < 0) {
    return FailedPreconditionError("executable requires an entry function");
  }
  for (const auto& fn : functions_) {
    for (const auto& reloc : fn.relocs) {
      if (reloc.offset + 4 > fn.body.size()) {
        return InvalidArgumentError("relocation outside function body in " +
                                    fn.name);
      }
      switch (reloc.kind) {
        case TextReloc::Kind::kPltCall:
          if (reloc.target >= imports_.size()) {
            return InvalidArgumentError("plt reloc target out of range");
          }
          break;
        case TextReloc::Kind::kLocalCall:
          if (reloc.target >= functions_.size()) {
            return InvalidArgumentError("local call target out of range");
          }
          break;
        case TextReloc::Kind::kRodataRef:
          if (reloc.target >= rodata_.size()) {
            return InvalidArgumentError("rodata reloc target out of range");
          }
          break;
      }
    }
  }

  const uint64_t base = type_ == BinaryType::kExecutable ? kExecBase : 0;

  // ---- String tables ----
  StringTable dynstr;
  for (const auto& lib : needed_) {
    dynstr.Add(lib);
  }
  if (!soname_.empty()) {
    dynstr.Add(soname_);
  }
  std::vector<uint32_t> import_names;
  import_names.reserve(imports_.size());
  for (const auto& sym : imports_) {
    import_names.push_back(dynstr.Add(sym));
  }
  std::vector<uint32_t> export_names;
  for (const auto& fn : functions_) {
    export_names.push_back(fn.exported ? dynstr.Add(fn.name) : 0);
  }

  StringTable strtab;
  std::vector<uint32_t> symtab_names;
  symtab_names.reserve(functions_.size());
  for (const auto& fn : functions_) {
    symtab_names.push_back(strtab.Add(fn.name));
  }

  // ---- .text layout: functions 16-byte aligned ----
  std::vector<uint64_t> fn_text_offset(functions_.size());
  uint64_t text_size = 0;
  for (size_t i = 0; i < functions_.size(); ++i) {
    text_size = (text_size + 15) & ~15ULL;
    fn_text_offset[i] = text_size;
    text_size += functions_[i].body.size();
  }

  // ---- Section plans, in file order ----
  // Order: .dynsym .dynstr .rela.plt .plt .text .rodata .got.plt .dynamic
  //        .symtab .strtab .shstrtab  (+ leading null section header).
  enum SectionIndex : uint32_t {
    kIdxNull = 0,
    kIdxDynsym,
    kIdxDynstr,
    kIdxRelaPlt,
    kIdxPlt,
    kIdxText,
    kIdxRodata,
    kIdxGotPlt,
    kIdxDynamic,
    kIdxSymtab,
    kIdxStrtab,
    kIdxShstrtab,
    kSectionCount,
  };

  std::vector<SectionPlan> plans(kSectionCount);
  plans[kIdxNull].name = "";
  plans[kIdxNull].type = kShtNull;
  plans[kIdxNull].align = 0;

  // .dynsym: null + imports (UND) + exported functions.
  {
    SectionPlan& p = plans[kIdxDynsym];
    p.name = ".dynsym";
    p.type = kShtDynsym;
    p.flags = kShfAlloc;
    p.entsize = kSymSize;
    p.link = kIdxDynstr;
    ByteWriter w;
    WriteSym(w, 0, 0, kShnUndef, 0, 0);
    for (size_t i = 0; i < imports_.size(); ++i) {
      WriteSym(w, import_names[i], StInfo(kStbGlobal, kSttFunc), kShnUndef, 0,
               0);
    }
    // Export values patched after layout (need .text addr); remember where.
    for (size_t i = 0; i < functions_.size(); ++i) {
      if (functions_[i].exported) {
        WriteSym(w, export_names[i], StInfo(kStbGlobal, kSttFunc), kIdxText, 0,
                 functions_[i].body.size());
      }
    }
    p.data = w.Take();
  }

  plans[kIdxDynstr] = SectionPlan{
      .name = ".dynstr", .type = kShtStrtab, .flags = kShfAlloc, .align = 1,
      .entsize = 0, .link = 0, .data = dynstr.data()};

  // .rela.plt: filled after layout (needs .got.plt addr); size known now.
  {
    SectionPlan& p = plans[kIdxRelaPlt];
    p.name = ".rela.plt";
    p.type = kShtRela;
    p.flags = kShfAlloc;
    p.entsize = kRelaSize;
    p.link = kIdxDynsym;
    p.data.resize(imports_.size() * kRelaSize);
  }

  // .plt: stubs filled after layout; size known now.
  {
    SectionPlan& p = plans[kIdxPlt];
    p.name = ".plt";
    p.type = kShtProgbits;
    p.flags = kShfAlloc | kShfExecinstr;
    p.align = 16;
    p.data.resize(imports_.size() * kPltStubSize);
  }

  // .text: bodies placed; relocations patched after layout.
  {
    SectionPlan& p = plans[kIdxText];
    p.name = ".text";
    p.type = kShtProgbits;
    p.flags = kShfAlloc | kShfExecinstr;
    p.align = 16;
    p.data.assign(text_size, 0x90);  // nop padding between functions
    for (size_t i = 0; i < functions_.size(); ++i) {
      std::copy(functions_[i].body.begin(), functions_[i].body.end(),
                p.data.begin() + static_cast<ptrdiff_t>(fn_text_offset[i]));
    }
  }

  plans[kIdxRodata] = SectionPlan{
      .name = ".rodata", .type = kShtProgbits, .flags = kShfAlloc, .align = 8,
      .entsize = 0, .link = 0, .data = rodata_};

  {
    SectionPlan& p = plans[kIdxGotPlt];
    p.name = ".got.plt";
    p.type = kShtProgbits;
    p.flags = kShfAlloc | kShfWrite;
    p.data.resize(imports_.size() * kGotEntrySize);
  }

  // .dynamic: filled after layout; count entries now.
  {
    size_t entries = needed_.size() + (soname_.empty() ? 0 : 1) +
                     /* STRTAB SYMTAB STRSZ SYMENT */ 4 +
                     (imports_.empty() ? 0 : 3) /* JMPREL PLTRELSZ/PLTREL */ +
                     (imports_.empty() ? 0 : 1) /* PLTGOT */ + 1 /* NULL */;
    SectionPlan& p = plans[kIdxDynamic];
    p.name = ".dynamic";
    p.type = kShtDynamic;
    p.flags = kShfAlloc | kShfWrite;
    p.entsize = kDynSize;
    p.link = kIdxDynstr;
    p.data.resize(entries * kDynSize);
  }

  // .symtab: null + all functions; values patched after layout.
  {
    SectionPlan& p = plans[kIdxSymtab];
    p.name = ".symtab";
    p.type = kShtSymtab;
    p.entsize = kSymSize;
    p.link = kIdxStrtab;
    ByteWriter w;
    WriteSym(w, 0, 0, kShnUndef, 0, 0);
    // Locals first (required ordering), then globals.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < functions_.size(); ++i) {
        bool global = functions_[i].exported;
        if ((pass == 0) == global) {
          continue;
        }
        WriteSym(w, symtab_names[i],
                 StInfo(global ? kStbGlobal : kStbLocal, kSttFunc), kIdxText, 0,
                 functions_[i].body.size());
      }
    }
    p.data = w.Take();
  }

  plans[kIdxStrtab] = SectionPlan{
      .name = ".strtab", .type = kShtStrtab, .flags = 0, .align = 1,
      .entsize = 0, .link = 0, .data = strtab.data()};

  // .shstrtab built from plan names.
  StringTable shstr;
  std::vector<uint32_t> section_name_offsets(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (i == kIdxShstrtab) {
      section_name_offsets[i] = shstr.Add(".shstrtab");
    } else {
      section_name_offsets[i] = shstr.Add(plans[i].name);
    }
  }
  plans[kIdxShstrtab] = SectionPlan{
      .name = ".shstrtab", .type = kShtStrtab, .flags = 0, .align = 1,
      .entsize = 0, .link = 0, .data = shstr.data()};

  // ---- Layout: ehdr, phdrs, then sections in order; vaddr = base + offset.
  const uint16_t phnum = 3;  // LOAD(RX) LOAD(RW) DYNAMIC
  uint64_t cursor = kEhdrSize + static_cast<uint64_t>(phnum) * kPhdrSize;
  for (size_t i = 1; i < plans.size(); ++i) {
    SectionPlan& p = plans[i];
    uint64_t align = std::max<uint64_t>(p.align, 1);
    cursor = (cursor + align - 1) & ~(align - 1);
    p.offset = cursor;
    if ((p.flags & kShfAlloc) != 0) {
      p.addr = base + cursor;
    }
    cursor += p.data.size();
  }
  uint64_t shoff = (cursor + 7) & ~7ULL;

  // ---- Patch .dynsym export values ----
  {
    auto& data = plans[kIdxDynsym].data;
    size_t record = 1 + imports_.size();
    for (size_t i = 0; i < functions_.size(); ++i) {
      if (!functions_[i].exported) {
        continue;
      }
      uint64_t value = plans[kIdxText].addr + fn_text_offset[i];
      size_t field = record * kSymSize + 8;  // st_value at offset 8
      for (int b = 0; b < 8; ++b) {
        data[field + static_cast<size_t>(b)] =
            static_cast<uint8_t>(value >> (8 * b));
      }
      ++record;
    }
  }

  // ---- Patch .symtab values (locals then globals, matching the emit order).
  {
    auto& data = plans[kIdxSymtab].data;
    size_t record = 1;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < functions_.size(); ++i) {
        bool global = functions_[i].exported;
        if ((pass == 0) == global) {
          continue;
        }
        uint64_t value = plans[kIdxText].addr + fn_text_offset[i];
        size_t field = record * kSymSize + 8;
        for (int b = 0; b < 8; ++b) {
          data[field + static_cast<size_t>(b)] =
              static_cast<uint8_t>(value >> (8 * b));
        }
        ++record;
      }
    }
  }

  // ---- Fill .plt stubs and .rela.plt ----
  {
    auto& plt = plans[kIdxPlt].data;
    ByteWriter rela;
    for (size_t i = 0; i < imports_.size(); ++i) {
      uint64_t stub_vaddr = plans[kIdxPlt].addr + i * kPltStubSize;
      uint64_t got_vaddr = plans[kIdxGotPlt].addr + i * kGotEntrySize;
      int64_t disp = static_cast<int64_t>(got_vaddr) -
                     static_cast<int64_t>(stub_vaddr + 6);
      size_t off = i * kPltStubSize;
      plt[off] = 0xff;
      plt[off + 1] = 0x25;
      for (int b = 0; b < 4; ++b) {
        plt[off + 2 + static_cast<size_t>(b)] =
            static_cast<uint8_t>(static_cast<uint64_t>(disp) >> (8 * b));
      }
      // Pad remainder with nops.
      for (size_t b = 6; b < kPltStubSize; ++b) {
        plt[off + b] = 0x90;
      }
      rela.PutU64(got_vaddr);
      rela.PutU64(RInfo(static_cast<uint32_t>(i + 1), kRX8664JumpSlot));
      rela.PutI64(0);
    }
    plans[kIdxRelaPlt].data = rela.Take();
  }

  // ---- Patch .text relocations ----
  {
    auto& text = plans[kIdxText].data;
    uint64_t text_addr = plans[kIdxText].addr;
    for (size_t i = 0; i < functions_.size(); ++i) {
      for (const auto& reloc : functions_[i].relocs) {
        uint64_t field_vaddr = text_addr + fn_text_offset[i] + reloc.offset;
        uint64_t target_vaddr = 0;
        switch (reloc.kind) {
          case TextReloc::Kind::kPltCall:
            target_vaddr = plans[kIdxPlt].addr + reloc.target * kPltStubSize;
            break;
          case TextReloc::Kind::kLocalCall:
            target_vaddr = text_addr + fn_text_offset[reloc.target];
            break;
          case TextReloc::Kind::kRodataRef:
            target_vaddr = plans[kIdxRodata].addr + reloc.target;
            break;
        }
        int64_t rel = static_cast<int64_t>(target_vaddr) -
                      static_cast<int64_t>(field_vaddr + 4);
        size_t field = static_cast<size_t>(fn_text_offset[i]) + reloc.offset;
        for (int b = 0; b < 4; ++b) {
          text[field + static_cast<size_t>(b)] =
              static_cast<uint8_t>(static_cast<uint64_t>(rel) >> (8 * b));
        }
      }
    }
  }

  // ---- Fill .dynamic ----
  {
    ByteWriter w;
    auto put = [&w](int64_t tag, uint64_t val) {
      w.PutI64(tag);
      w.PutU64(val);
    };
    StringTable dynstr_lookup;  // same insertion order as `dynstr` above
    for (const auto& lib : needed_) {
      put(kDtNeeded, dynstr_lookup.Add(lib));
    }
    if (!soname_.empty()) {
      put(kDtSoname, dynstr_lookup.Add(soname_));
    }
    put(kDtStrtab, plans[kIdxDynstr].addr);
    put(kDtSymtab, plans[kIdxDynsym].addr);
    put(kDtStrsz, plans[kIdxDynstr].data.size());
    put(kDtSyment, kSymSize);
    if (!imports_.empty()) {
      put(kDtJmprel, plans[kIdxRelaPlt].addr);
      put(kDtPltrelsz, plans[kIdxRelaPlt].data.size());
      put(kDtPltrel, 7 /* DT_RELA */);
      put(kDtPltgot, plans[kIdxGotPlt].addr);
    }
    put(kDtNull, 0);
    plans[kIdxDynamic].data = w.Take();
  }

  // ---- Serialize ----
  ByteWriter out;
  // ehdr
  out.PutU8(kMag0);
  out.PutU8(kMag1);
  out.PutU8(kMag2);
  out.PutU8(kMag3);
  out.PutU8(kClass64);
  out.PutU8(kData2Lsb);
  out.PutU8(kEvCurrent);
  out.PutU8(kOsabiSysv);
  for (int i = 8; i < kEiNident; ++i) {
    out.PutU8(0);
  }
  out.PutU16(type_ == BinaryType::kExecutable ? kEtExec : kEtDyn);
  out.PutU16(kEmX8664);
  out.PutU32(1);  // e_version
  uint64_t entry = 0;
  if (type_ == BinaryType::kExecutable) {
    entry = plans[kIdxText].addr +
            fn_text_offset[static_cast<size_t>(entry_function_)];
  }
  out.PutU64(entry);
  out.PutU64(kEhdrSize);  // e_phoff: phdrs follow the ehdr
  out.PutU64(shoff);
  out.PutU32(0);          // e_flags
  out.PutU16(kEhdrSize);
  out.PutU16(kPhdrSize);
  out.PutU16(phnum);
  out.PutU16(kShdrSize);
  out.PutU16(static_cast<uint16_t>(plans.size()));
  out.PutU16(kIdxShstrtab);

  // phdrs
  auto put_phdr = [&out](uint32_t type, uint32_t flags, uint64_t offset,
                         uint64_t vaddr, uint64_t size) {
    out.PutU32(type);
    out.PutU32(flags);
    out.PutU64(offset);
    out.PutU64(vaddr);
    out.PutU64(vaddr);  // p_paddr
    out.PutU64(size);
    out.PutU64(size);
    out.PutU64(0x1000);
  };
  // RX: file start through end of .rodata.
  uint64_t rx_end = plans[kIdxRodata].offset + plans[kIdxRodata].data.size();
  put_phdr(kPtLoad, kPfR | kPfX, 0, base, rx_end);
  // RW: .got.plt + .dynamic.
  uint64_t rw_off = plans[kIdxGotPlt].offset;
  uint64_t rw_end = plans[kIdxDynamic].offset + plans[kIdxDynamic].data.size();
  put_phdr(kPtLoad, kPfR | kPfW, rw_off, base + rw_off, rw_end - rw_off);
  put_phdr(kPtDynamic, kPfR | kPfW, plans[kIdxDynamic].offset,
           plans[kIdxDynamic].addr,
           plans[kIdxDynamic].data.size());

  // section bodies
  for (size_t i = 1; i < plans.size(); ++i) {
    while (out.size() < plans[i].offset) {
      out.PutU8(0);
    }
    out.PutBytes(plans[i].data);
  }

  // section headers
  while (out.size() < shoff) {
    out.PutU8(0);
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    const SectionPlan& p = plans[i];
    out.PutU32(section_name_offsets[i]);
    out.PutU32(p.type);
    out.PutU64(p.flags);
    out.PutU64(p.addr);
    out.PutU64(i == 0 ? 0 : p.offset);
    out.PutU64(p.data.size());
    out.PutU32(p.link);
    out.PutU32(0);  // sh_info
    out.PutU64(p.align);
    out.PutU64(p.entsize);
  }

  return out.Take();
}

}  // namespace lapis::elf
