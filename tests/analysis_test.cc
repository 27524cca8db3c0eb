// Static-analysis tests over hand-built ELF binaries with known ground
// truth: syscall-number recovery, vectored opcodes, pseudo-path extraction,
// call-graph reachability, per-export footprints, and cross-library
// resolution, the last also checked against a naive reference on corpus
// packages.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/codegen/function_builder.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"
#include "src/runtime/executor.h"

namespace lapis::analysis {
namespace {

using codegen::FunctionBuilder;
using elf::BinaryType;
using elf::ElfBuilder;
using elf::ElfImage;

ElfImage Parse(const Result<std::vector<uint8_t>>& bytes) {
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto image = elf::ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? image.take() : ElfImage();
}

BinaryAnalysis Analyze(const ElfImage& image) {
  auto analysis = BinaryAnalyzer::Analyze(image);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return analysis.take();
}

std::shared_ptr<const BinaryAnalysis> AnalyzeShared(
    const Result<std::vector<uint8_t>>& bytes) {
  return std::make_shared<BinaryAnalysis>(Analyze(Parse(bytes)));
}

TEST(BinaryAnalyzer, RecoversDirectSyscallNumbers) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.EmitPrologue();
  fn.MovRegImm32(disasm::kRax, 0);   // read
  fn.Syscall();
  fn.MovRegImm32(disasm::kRax, 60);  // exit
  fn.Syscall();
  fn.XorRegReg(disasm::kRax);        // read again via xor-zero
  fn.Syscall();
  fn.EmitEpilogue();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = analysis.FromEntry();
  EXPECT_EQ(reach.footprint.syscalls, (std::set<int>{0, 60}));
  EXPECT_EQ(analysis.unknown_syscall_sites, 0);
  EXPECT_EQ(analysis.total_syscall_sites, 3);
}

TEST(BinaryAnalyzer, MovRegRegPropagatesSyscallNumber) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRdi, 39);       // getpid into rdi
  fn.MovRegReg(disasm::kRax, disasm::kRdi);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(analysis.FromEntry().footprint.syscalls, (std::set<int>{39}));
}

TEST(BinaryAnalyzer, ObfuscatedSiteCountsAsUnknown) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32Obfuscated(disasm::kRax, 1);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_TRUE(analysis.FromEntry().footprint.syscalls.empty());
  EXPECT_EQ(analysis.unknown_syscall_sites, 1);
}

TEST(BinaryAnalyzer, VectoredOpcodesDirectSyscall) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  // ioctl(fd, TCGETS): rsi = 0x5401, rax = 16.
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.MovRegImm32(disasm::kRax, 16);
  fn.Syscall();
  // fcntl(fd, F_GETFL=3).
  fn.MovRegImm32(disasm::kRsi, 3);
  fn.MovRegImm32(disasm::kRax, 72);
  fn.Syscall();
  // prctl(PR_SET_NAME=15, ...): option in rdi.
  fn.MovRegImm32(disasm::kRdi, 15);
  fn.MovRegImm32(disasm::kRax, 157);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = analysis.FromEntry().footprint;
  EXPECT_EQ(fp.ioctl_ops, (std::set<uint32_t>{0x5401}));
  EXPECT_EQ(fp.fcntl_ops, (std::set<uint32_t>{3}));
  EXPECT_EQ(fp.prctl_ops, (std::set<uint32_t>{15}));
}

TEST(BinaryAnalyzer, VectoredOpcodeViaPltWrapper) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  uint32_t syscall_imp = builder.AddImport("syscall");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5413);  // TIOCGWINSZ
  fn.CallImport(ioctl_imp);
  // syscall(318): getrandom via the libc syscall() wrapper.
  fn.MovRegImm32(disasm::kRdi, 318);
  fn.CallImport(syscall_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = analysis.FromEntry();
  EXPECT_EQ(reach.footprint.ioctl_ops, (std::set<uint32_t>{0x5413}));
  EXPECT_EQ(reach.footprint.syscalls, (std::set<int>{318}));
  EXPECT_EQ(reach.plt_calls,
            (std::set<std::string>{"ioctl", "syscall"}));
}

TEST(BinaryAnalyzer, UnknownOpcodeAfterClobber) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  uint32_t other_imp = builder.AddImport("foo");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.CallImport(other_imp);   // clobbers rsi (caller-saved)
  fn.CallImport(ioctl_imp);   // opcode unknown here
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = analysis.FromEntry().footprint;
  EXPECT_TRUE(fp.ioctl_ops.empty());
  EXPECT_EQ(fp.unknown_opcode_sites, 1);
}

TEST(BinaryAnalyzer, PseudoPathExtraction) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t open_imp = builder.AddImport("open");
  uint32_t sprintf_imp = builder.AddImport("sprintf");
  uint32_t null_off = builder.AddRodataString("/dev/null");
  uint32_t tmpl_off = builder.AddRodataString("/proc/%d/cmdline");
  uint32_t etc_off = builder.AddRodataString("/etc/passwd");
  FunctionBuilder fn("_start");
  fn.LeaRodata(disasm::kRdi, null_off);
  fn.CallImport(open_imp);
  fn.LeaRodata(disasm::kRsi, tmpl_off);
  fn.CallImport(sprintf_imp);
  fn.LeaRodata(disasm::kRdi, etc_off);  // not a pseudo path
  fn.CallImport(open_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(analysis.FromEntry().footprint.pseudo_paths,
            (std::set<std::string>{"/dev/null", "/proc/%/cmdline"}));
}

TEST(BinaryAnalyzer, CallGraphReachability) {
  ElfBuilder builder(BinaryType::kExecutable);
  // helper_used: syscall 1; helper_dead: syscall 2 (never called).
  FunctionBuilder used("helper_used");
  used.MovRegImm32(disasm::kRax, 1);
  used.Syscall();
  used.Ret();
  uint32_t used_idx = builder.AddFunction(used.Finish(false));
  FunctionBuilder dead("helper_dead");
  dead.MovRegImm32(disasm::kRax, 2);
  dead.Syscall();
  dead.Ret();
  builder.AddFunction(dead.Finish(false));
  FunctionBuilder start("_start");
  start.CallLocal(used_idx);
  start.Ret();
  uint32_t start_idx = builder.AddFunction(start.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(start_idx).ok());

  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = analysis.FromEntry();
  EXPECT_EQ(reach.footprint.syscalls, (std::set<int>{1}));
  EXPECT_EQ(reach.function_count, 2u);

  // Whole-binary roots find the dead helper too.
  const FunctionInfo* dead_fn = analysis.FunctionNamed("helper_dead");
  ASSERT_NE(dead_fn, nullptr);
  auto all = analysis.Reachable(
      {analysis.entry(), dead_fn->vaddr});
  EXPECT_EQ(all.footprint.syscalls, (std::set<int>{1, 2}));
}

TEST(BinaryAnalyzer, RecursionTerminates) {
  ElfBuilder builder(BinaryType::kExecutable);
  // f calls g, g calls f (mutual recursion).
  FunctionBuilder f("f");
  f.MovRegImm32(disasm::kRax, 3);
  f.Syscall();
  f.CallLocal(1);  // g is function index 1
  f.Ret();
  builder.AddFunction(f.Finish(false));
  FunctionBuilder g("g");
  g.CallLocal(0);
  g.Ret();
  builder.AddFunction(g.Finish(false));
  FunctionBuilder start("_start");
  start.CallLocal(0);
  start.Ret();
  uint32_t start_idx = builder.AddFunction(start.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(start_idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(analysis.FromEntry().footprint.syscalls, (std::set<int>{3}));
}

TEST(BinaryAnalyzer, Int80Counted) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 4);
  fn.Int80();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = analysis.FromEntry().footprint;
  EXPECT_EQ(fp.int80_sites, 1);
  EXPECT_TRUE(fp.syscalls.empty());  // i386 numbers are not merged
  // ...but recorded separately with i386 numbering (4 = write).
  EXPECT_EQ(fp.int80_syscalls, (std::set<int>{4}));
}

TEST(BinaryAnalyzer, IndirectCallsCounted) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.Nop();
  // call rax (ff d0), emitted raw.
  elf::FunctionDef def = fn.Finish(false);
  def.body.push_back(0xff);
  def.body.push_back(0xd0);
  def.body.push_back(0xc3);
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(analysis.FromEntry().footprint.indirect_call_sites, 1);
}

TEST(BinaryAnalyzer, OptionsDisableOpcodeRecovery) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.CallImport(ioctl_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options options;
  options.resolve_wrapper_opcodes = false;
  auto analysis = BinaryAnalyzer::Analyze(image, options);
  ASSERT_TRUE(analysis.ok());
  auto fp = analysis.value().FromEntry().footprint;
  EXPECT_TRUE(fp.ioctl_ops.empty());
  EXPECT_EQ(fp.unknown_opcode_sites, 0);  // not even counted
}

TEST(BinaryAnalyzer, OptionsDisablePathCollection) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t open_imp = builder.AddImport("open");
  uint32_t path = builder.AddRodataString("/dev/null");
  FunctionBuilder fn("_start");
  fn.LeaRodata(disasm::kRdi, path);
  fn.CallImport(open_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options options;
  options.collect_pseudo_paths = false;
  auto analysis = BinaryAnalyzer::Analyze(image, options);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis.value().FromEntry().footprint.pseudo_paths.empty());
}

TEST(BinaryAnalyzer, TailCallThroughPltIsAnImport) {
  // jmp <plt> (a tail call) must record the import like a call would.
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t imp = builder.AddImport("getpid");
  FunctionBuilder fn("_start");
  elf::FunctionDef def = fn.Finish(false);
  def.body = {0xe9, 0, 0, 0, 0};  // jmp rel32
  def.relocs.push_back(
      elf::TextReloc{elf::TextReloc::Kind::kPltCall, 1, imp});
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  EXPECT_EQ(analysis.FromEntry().plt_calls,
            (std::set<std::string>{"getpid"}));
}

TEST(BinaryAnalyzer, C7FormMovFeedsSyscallNumber) {
  // mov eax, imm32 via c7 /0 (compilers emit both forms).
  ElfBuilder builder(BinaryType::kExecutable);
  elf::FunctionDef def;
  def.name = "_start";
  def.body = {0xc7, 0xc0, 0x27, 0x00, 0x00, 0x00,  // mov eax, 39
              0x0f, 0x05,                          // syscall
              0xc3};
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  EXPECT_EQ(analysis.FromEntry().footprint.syscalls, (std::set<int>{39}));
}

TEST(BinaryAnalyzer, UndecodableFunctionMarkedIncomplete) {
  ElfBuilder builder(BinaryType::kExecutable);
  elf::FunctionDef def;
  def.name = "_start";
  def.body = {0x90, 0x06, 0x90};  // nop, invalid-in-64-bit, nop
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  const FunctionInfo* fn = analysis.FunctionNamed("_start");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->decode_complete);
}

TEST(BinaryAnalyzer, StateResetAfterUnconditionalJump) {
  // mov rsi, imm; jmp over; ...; target: call ioctl -- the linear sweep
  // must not assume rsi still holds the constant at the jump target (it
  // may be reached from elsewhere). CFG dataflow proves the jmp is the
  // target's only predecessor, so there the constant legitimately
  // survives (the dynamic replay agrees -- a precision win, not a leak).
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  elf::FunctionDef def = fn.Finish(false);
  def.body.push_back(0xeb);  // jmp +0 (next insn)
  def.body.push_back(0x00);
  // call ioctl@plt
  def.body.push_back(0xe8);
  def.relocs.push_back(elf::TextReloc{
      elf::TextReloc::Kind::kPltCall,
      static_cast<uint32_t>(def.body.size()), ioctl_imp});
  for (int i = 0; i < 4; ++i) {
    def.body.push_back(0);
  }
  def.body.push_back(0xc3);
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options linear;
  linear.use_dataflow = false;
  auto linear_analysis = BinaryAnalyzer::Analyze(image, linear);
  ASSERT_TRUE(linear_analysis.ok());
  auto linear_fp = linear_analysis.value().FromEntry().footprint;
  EXPECT_TRUE(linear_fp.ioctl_ops.empty());
  EXPECT_EQ(linear_fp.unknown_opcode_sites, 1);

  BinaryAnalysis dataflow_analysis = Analyze(image);
  auto dataflow_fp = dataflow_analysis.FromEntry().footprint;
  EXPECT_EQ(dataflow_fp.ioctl_ops, (std::set<uint32_t>{0x5401}));
  EXPECT_EQ(dataflow_fp.unknown_opcode_sites, 0);
}

TEST(BinaryAnalyzer, ConditionalBranchNeverLeaksOnePathsConstant) {
  // mov eax, 1; je L; mov eax, 60; L: syscall -- the site executes as
  // write(1) or exit(60) depending on the flags. The historical kJccRel
  // leak reported a confident {60} here; both modes must instead count
  // the site unknown (dataflow joins 1 and 60 to top; the linear sweep
  // resets at the branch target).
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 1);
  fn.JccShortForward(0x4, 5);  // je over the 5-byte mov below
  fn.MovRegImm32(disasm::kRax, 60);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  for (bool use_dataflow : {false, true}) {
    BinaryAnalyzer::Options options;
    options.use_dataflow = use_dataflow;
    auto analysis = BinaryAnalyzer::Analyze(image, options);
    ASSERT_TRUE(analysis.ok());
    auto fp = analysis.value().FromEntry().footprint;
    EXPECT_TRUE(fp.syscalls.empty())
        << "use_dataflow=" << use_dataflow;
    EXPECT_EQ(fp.unknown_syscall_sites, 1)
        << "use_dataflow=" << use_dataflow;
  }
}

TEST(BinaryAnalyzer, GuardedConstantSurvivesJoinOnlyWithDataflow) {
  // mov eax, 39; jne L; nop; L: syscall -- both paths into the site carry
  // the same constant. The CFG join keeps it; the linear baseline must
  // still drop to unknown at the merge point.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 39);
  fn.JccShortForward(0x5, 1);  // jne over the nop
  fn.Nop(1);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalysis dataflow_analysis = Analyze(image);
  EXPECT_EQ(dataflow_analysis.FromEntry().footprint.syscalls,
            (std::set<int>{39}));
  EXPECT_EQ(dataflow_analysis.unknown_syscall_sites, 0);

  BinaryAnalyzer::Options linear;
  linear.use_dataflow = false;
  auto linear_analysis = BinaryAnalyzer::Analyze(image, linear);
  ASSERT_TRUE(linear_analysis.ok());
  EXPECT_TRUE(linear_analysis.value().FromEntry().footprint.syscalls.empty());
  EXPECT_EQ(linear_analysis.value().unknown_syscall_sites, 1);
}

// ---------------- Library resolution ----------------

// Builds a mini libc exporting read/write wrappers plus a "stdio" function
// that locally calls the write wrapper.
std::shared_ptr<const BinaryAnalysis> MiniLibc() {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libmini.so");
  FunctionBuilder read_fn("read");
  read_fn.MovRegImm32(disasm::kRax, 0);
  read_fn.Syscall();
  read_fn.Ret();
  uint32_t read_idx = builder.AddFunction(read_fn.Finish(true));
  (void)read_idx;
  FunctionBuilder write_fn("write");
  write_fn.MovRegImm32(disasm::kRax, 1);
  write_fn.Syscall();
  write_fn.Ret();
  uint32_t write_idx = builder.AddFunction(write_fn.Finish(true));
  FunctionBuilder printf_fn("printf");
  printf_fn.EmitPrologue();
  printf_fn.CallLocal(write_idx);
  printf_fn.EmitEpilogue();
  builder.AddFunction(printf_fn.Finish(true));
  return AnalyzeShared(builder.Build());
}

// A second library whose export calls into libmini.
std::shared_ptr<const BinaryAnalysis> MiniUtilLib() {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libutil.so");
  builder.AddNeeded("libmini.so");
  uint32_t printf_imp = builder.AddImport("printf");
  FunctionBuilder fn("util_log");
  fn.EmitPrologue();
  fn.CallImport(printf_imp);
  fn.MovRegImm32(disasm::kRax, 201);  // time
  fn.Syscall();
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(true));
  return AnalyzeShared(builder.Build());
}

TEST(LibraryResolver, PerExportFootprints) {
  auto libc = MiniLibc();
  auto exports = libc->PerExportReachable();
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_EQ(exports.at("read").footprint.syscalls, (std::set<int>{0}));
  EXPECT_EQ(exports.at("printf").footprint.syscalls, (std::set<int>{1}));
}

TEST(LibraryResolver, ResolvesTwoHopImportChain) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  ASSERT_TRUE(resolver.AddLibrary(MiniUtilLib()).ok());

  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libutil.so");
  uint32_t imp = builder.AddImport("util_log");
  FunctionBuilder fn("_start");
  fn.CallImport(imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = elf::ElfReader::Parse(builder.Build().value());
  ASSERT_TRUE(image.ok());
  auto exe = BinaryAnalyzer::Analyze(image.value());
  ASSERT_TRUE(exe.ok());

  auto resolution = resolver.ResolveExecutable(exe.value());
  // util_log -> time(201); printf -> write(1). read is never pulled in.
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1, 201}));
  EXPECT_EQ(resolution.used_exports.at("libutil.so"),
            (std::set<std::string>{"util_log"}));
  EXPECT_EQ(resolution.used_exports.at("libmini.so"),
            (std::set<std::string>{"printf"}));
  EXPECT_TRUE(resolution.unresolved_imports.empty());
}

TEST(LibraryResolver, UnresolvedImportsReported) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  auto resolution = resolver.ResolveFromSymbols({"printf", "nonexistent"});
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1}));
  EXPECT_EQ(resolution.unresolved_imports,
            (std::set<std::string>{"nonexistent"}));
}

TEST(LibraryResolver, WholeLibraryClosure) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  auto resolution = resolver.ResolveWholeLibrary("libmini.so");
  ASSERT_TRUE(resolution.ok());
  EXPECT_EQ(resolution.value().footprint.syscalls, (std::set<int>{0, 1}));
  EXPECT_FALSE(resolver.ResolveWholeLibrary("libmissing.so").ok());
}

TEST(LibraryResolver, RejectsDuplicateAndAnonymous) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  EXPECT_EQ(resolver.AddLibrary(MiniLibc()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(resolver.AddLibrary(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(LibraryResolver, ExporterLookup) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  EXPECT_EQ(resolver.ExporterOf("printf"), "libmini.so");
  EXPECT_EQ(resolver.ExporterOf("nope"), "");
}

// ---------------- Reference resolution ----------------

// Naive reference for the cross-binary fixpoint the paper computed with
// recursive SQL: a BFS over (binary, function vaddr) nodes. Edges are
// local_callees plus each plt_calls symbol bound to the first registered
// library that exports it; facts are the union of the reached functions'
// local sets, starting from the executable's entry function (or from a set
// of exported symbols). Reached symbols land in used_exports, symbols no
// library exports in unresolved_imports.
class ReferenceResolver {
 public:
  using Resolution = LibraryResolver::Resolution;

  void AddLibrary(std::shared_ptr<const BinaryAnalysis> library) {
    for (const auto& symbol : library->exports()) {
      const FunctionInfo* fn = library->FunctionNamed(symbol);
      if (fn != nullptr) {
        exporters_.try_emplace(symbol, Exporter{{library.get(), fn->vaddr},
                                                library->soname()});
      }
    }
    libraries_.push_back(std::move(library));
  }

  Resolution ResolveExecutable(const BinaryAnalysis& exe) const {
    return Closure({{&exe, exe.entry()}}, {});
  }

  Resolution ResolveFromSymbols(const std::vector<std::string>& symbols) const {
    return Closure({}, symbols);
  }

  Resolution ResolveWholeLibrary(const BinaryAnalysis& library) const {
    return Closure({}, library.exports());
  }

 private:
  using Node = std::pair<const BinaryAnalysis*, uint64_t>;
  struct Exporter {
    Node node;
    std::string soname;
  };

  Resolution Closure(std::vector<Node> stack,
                     const std::vector<std::string>& symbols) const {
    Resolution resolution;
    auto follow = [&](const std::string& symbol) {
      auto exporter = exporters_.find(symbol);
      if (exporter == exporters_.end()) {
        resolution.unresolved_imports.insert(symbol);
        return;
      }
      resolution.used_exports[exporter->second.soname].insert(symbol);
      stack.push_back(exporter->second.node);
    };
    for (const auto& symbol : symbols) {
      follow(symbol);
    }
    Footprint& footprint = resolution.footprint;
    std::set<Node> visited;
    while (!stack.empty()) {
      const auto [binary, vaddr] = stack.back();
      stack.pop_back();
      const FunctionInfo* fn = binary->FunctionAt(vaddr);
      if (fn == nullptr || !visited.insert({binary, vaddr}).second) {
        continue;
      }
      const Footprint& local = fn->local;
      footprint.syscalls.insert(local.syscalls.begin(), local.syscalls.end());
      footprint.ioctl_ops.insert(local.ioctl_ops.begin(),
                                 local.ioctl_ops.end());
      footprint.fcntl_ops.insert(local.fcntl_ops.begin(),
                                 local.fcntl_ops.end());
      footprint.prctl_ops.insert(local.prctl_ops.begin(),
                                 local.prctl_ops.end());
      footprint.pseudo_paths.insert(local.pseudo_paths.begin(),
                                    local.pseudo_paths.end());
      for (uint64_t callee : fn->local_callees) {
        stack.push_back({binary, callee});
      }
      for (const auto& symbol : fn->plt_calls) {
        follow(symbol);
      }
    }
    return resolution;
  }

  std::vector<std::shared_ptr<const BinaryAnalysis>> libraries_;
  std::map<std::string, Exporter> exporters_;
};

void ExpectSameResolution(const LibraryResolver::Resolution& expected,
                          const LibraryResolver::Resolution& actual,
                          const std::string& name) {
  EXPECT_EQ(actual.footprint.syscalls, expected.footprint.syscalls) << name;
  EXPECT_EQ(actual.footprint.ioctl_ops, expected.footprint.ioctl_ops) << name;
  EXPECT_EQ(actual.footprint.fcntl_ops, expected.footprint.fcntl_ops) << name;
  EXPECT_EQ(actual.footprint.prctl_ops, expected.footprint.prctl_ops) << name;
  EXPECT_EQ(actual.footprint.pseudo_paths, expected.footprint.pseudo_paths)
      << name;
  EXPECT_EQ(actual.used_exports, expected.used_exports) << name;
  EXPECT_EQ(actual.unresolved_imports, expected.unresolved_imports) << name;
}

void ExpectSameReach(const BinaryAnalysis::ReachableResult& expected,
                     const BinaryAnalysis::ReachableResult& actual,
                     const std::string& name) {
  EXPECT_EQ(actual.footprint.syscalls, expected.footprint.syscalls) << name;
  EXPECT_EQ(actual.footprint.ioctl_ops, expected.footprint.ioctl_ops) << name;
  EXPECT_EQ(actual.footprint.fcntl_ops, expected.footprint.fcntl_ops) << name;
  EXPECT_EQ(actual.footprint.prctl_ops, expected.footprint.prctl_ops) << name;
  EXPECT_EQ(actual.footprint.pseudo_paths, expected.footprint.pseudo_paths)
      << name;
  EXPECT_EQ(actual.plt_calls, expected.plt_calls) << name;
  EXPECT_EQ(actual.function_count, expected.function_count) << name;
}

// The core libraries plus every binary of eight corpus packages (400-app
// spec), registered with a LibraryResolver on `executor` and with the
// reference, in the same order.
struct CorpusCase {
  explicit CorpusCase(runtime::Executor* executor) : resolver(executor) {}

  LibraryResolver resolver;
  ReferenceResolver reference;
  std::vector<std::shared_ptr<const BinaryAnalysis>> libraries;
  std::vector<std::pair<std::string, std::shared_ptr<const BinaryAnalysis>>>
      executables;
};

void BuildCorpusCase(CorpusCase& out) {
  corpus::DistroOptions options;
  options.app_package_count = 400;
  options.script_package_count = 40;
  options.data_package_count = 10;
  const corpus::DistroSpec spec = corpus::BuildDistroSpec(options).take();
  const corpus::DistroSynthesizer synthesizer(spec);
  auto add_library = [&](const corpus::SynthesizedBinary& binary) {
    auto library = AnalyzeShared(binary.bytes);
    ASSERT_TRUE(out.resolver.AddLibrary(library).ok()) << binary.name;
    out.reference.AddLibrary(library);
    out.libraries.push_back(std::move(library));
  };
  for (const auto& binary : synthesizer.CoreLibraries().take()) {
    ASSERT_NO_FATAL_FAILURE(add_library(binary));
  }
  for (const char* package :
       {"coreutils", "qemu-user", "libnuma", "app-0003", "app-0123",
        "app-0307", "kexec-tools", "python-core"}) {
    auto it = spec.by_name.find(package);
    ASSERT_NE(it, spec.by_name.end()) << package;
    for (const auto& binary : synthesizer.PackageBinaries(it->second).take()) {
      if (binary.is_library) {
        ASSERT_NO_FATAL_FAILURE(add_library(binary));
      } else {
        out.executables.emplace_back(binary.name, AnalyzeShared(binary.bytes));
      }
    }
  }
  ASSERT_GE(out.executables.size(), 8u);
}

// Resolves every executable of the corpus case with the LibraryResolver and
// with the reference; all five footprint fields, the used exports and the
// unresolved imports must agree.
void CheckCorpusAgainstReference(runtime::Executor* executor) {
  CorpusCase corpus_case(executor);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(corpus_case));
  Footprint seen;
  for (const auto& [name, exe] : corpus_case.executables) {
    const auto expected = corpus_case.reference.ResolveExecutable(*exe);
    ExpectSameResolution(expected,
                         corpus_case.resolver.ResolveExecutable(*exe), name);
    seen.MergeFrom(expected.footprint);
  }
  // Every field is exercised, so a resolver dropping one cannot pass.
  EXPECT_FALSE(seen.syscalls.empty());
  EXPECT_FALSE(seen.ioctl_ops.empty());
  EXPECT_FALSE(seen.fcntl_ops.empty());
  EXPECT_FALSE(seen.prctl_ops.empty());
  EXPECT_FALSE(seen.pseudo_paths.empty());
}

TEST(ReferenceResolver, AgreesOnCorpusPackagesSequential) {
  CheckCorpusAgainstReference(nullptr);
}

TEST(ReferenceResolver, AgreesOnCorpusPackagesOnFourThreads) {
  runtime::Executor executor(4);
  CheckCorpusAgainstReference(&executor);
}

TEST(ReferenceResolver, WholeLibrariesAgreeOnCorpus) {
  CorpusCase corpus_case(nullptr);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(corpus_case));
  for (const auto& library : corpus_case.libraries) {
    auto actual = corpus_case.resolver.ResolveWholeLibrary(library->soname());
    ASSERT_TRUE(actual.ok()) << library->soname();
    ExpectSameResolution(corpus_case.reference.ResolveWholeLibrary(*library),
                         actual.value(), library->soname());
  }
}

// Interpreter packages resolve from symbol sets: the entry's imports plus a
// symbol nobody exports.
TEST(ReferenceResolver, FromSymbolsAgreesOnCorpus) {
  CorpusCase corpus_case(nullptr);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(corpus_case));
  for (const auto& [name, exe] : corpus_case.executables) {
    const auto& imports = exe->FromEntry().plt_calls;
    std::vector<std::string> symbols(imports.begin(), imports.end());
    symbols.push_back("lapis_no_such_symbol");
    const auto actual = corpus_case.resolver.ResolveFromSymbols(symbols);
    ExpectSameResolution(corpus_case.reference.ResolveFromSymbols(symbols),
                         actual, name);
    EXPECT_TRUE(actual.unresolved_imports.contains("lapis_no_such_symbol"));
  }
}

// The Resolve* methods are const and documented safe to call concurrently
// once registration is done (the tsan preset runs this suite).
TEST(ReferenceResolver, ConcurrentResolutionAgreesOnCorpus) {
  CorpusCase corpus_case(nullptr);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(corpus_case));
  const auto& executables = corpus_case.executables;
  std::vector<LibraryResolver::Resolution> actual(executables.size());
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < executables.size(); i += kThreads) {
        actual[i] =
            corpus_case.resolver.ResolveExecutable(*executables[i].second);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < executables.size(); ++i) {
    ExpectSameResolution(
        corpus_case.reference.ResolveExecutable(*executables[i].second),
        actual[i], executables[i].first);
  }
}

// A warm cache registers libraries with their decoded per-export
// reachability instead of recomputing it; resolution must not change.
TEST(ReferenceResolver, PrecomputedReachAgreesOnCorpus) {
  CorpusCase corpus_case(nullptr);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(corpus_case));
  LibraryResolver warm;
  for (const auto& library : corpus_case.libraries) {
    const auto* reach = corpus_case.resolver.ExportReachOf(library->soname());
    ASSERT_NE(reach, nullptr) << library->soname();
    ASSERT_TRUE(warm.AddLibrary(library, *reach).ok()) << library->soname();
  }
  EXPECT_EQ(warm.sonames(), corpus_case.resolver.sonames());
  for (const auto& [name, exe] : corpus_case.executables) {
    ExpectSameResolution(corpus_case.reference.ResolveExecutable(*exe),
                         warm.ResolveExecutable(*exe), name);
  }
}

// Per-export reachability fanned out across worker shards equals the
// sequential computation, export by export.
TEST(ReferenceResolver, ExecutorRegistrationMatchesSequentialOnCorpus) {
  runtime::Executor executor(4);
  CorpusCase sequential(nullptr);
  CorpusCase parallel(&executor);
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(sequential));
  ASSERT_NO_FATAL_FAILURE(BuildCorpusCase(parallel));
  ASSERT_EQ(parallel.resolver.sonames(), sequential.resolver.sonames());
  for (const auto& soname : sequential.resolver.sonames()) {
    const auto* expected = sequential.resolver.ExportReachOf(soname);
    const auto* actual = parallel.resolver.ExportReachOf(soname);
    ASSERT_NE(expected, nullptr);
    ASSERT_NE(actual, nullptr);
    ASSERT_EQ(actual->size(), expected->size()) << soname;
    for (const auto& [symbol, reach] : *expected) {
      auto it = actual->find(symbol);
      ASSERT_NE(it, actual->end()) << soname << " " << symbol;
      ExpectSameReach(reach, it->second, soname + " " + symbol);
    }
  }
}

// ---------------- Hand-built resolution cases ----------------

// One exported function of a hand-built library: makes syscall `nr` (none
// if negative), then calls each of `calls` through the PLT.
struct ExportSpec {
  std::string name;
  int nr = -1;
  std::vector<std::string> calls;
};

std::shared_ptr<const BinaryAnalysis> SpecLib(
    const std::string& soname, const std::vector<ExportSpec>& exports) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(soname);
  std::map<std::string, uint32_t> imports;
  for (const auto& spec : exports) {
    for (const auto& callee : spec.calls) {
      if (!imports.contains(callee)) {
        imports[callee] = builder.AddImport(callee);
      }
    }
  }
  for (const auto& spec : exports) {
    FunctionBuilder fn(spec.name);
    fn.EmitPrologue();
    if (spec.nr >= 0) {
      fn.MovRegImm32(disasm::kRax, static_cast<uint32_t>(spec.nr));
      fn.Syscall();
    }
    for (const auto& callee : spec.calls) {
      fn.CallImport(imports.at(callee));
    }
    fn.EmitEpilogue();
    builder.AddFunction(fn.Finish(true));
  }
  return AnalyzeShared(builder.Build());
}

// An executable whose entry calls each of `calls` through the PLT.
std::shared_ptr<const BinaryAnalysis> CallingExe(
    const std::vector<std::string>& calls) {
  ElfBuilder builder(BinaryType::kExecutable);
  std::vector<uint32_t> imports;
  for (const auto& callee : calls) {
    imports.push_back(builder.AddImport(callee));
  }
  FunctionBuilder fn("_start");
  for (uint32_t imp : imports) {
    fn.CallImport(imp);
  }
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  return AnalyzeShared(builder.Build());
}

// A LibraryResolver and the reference fed the same libraries in the same
// order; Resolve checks that they agree and returns the resolver's answer.
struct ResolverPair {
  void Add(std::shared_ptr<const BinaryAnalysis> library) {
    ASSERT_TRUE(resolver.AddLibrary(library).ok()) << library->soname();
    reference.AddLibrary(std::move(library));
  }
  LibraryResolver::Resolution Resolve(const BinaryAnalysis& exe) {
    auto resolution = resolver.ResolveExecutable(exe);
    ExpectSameResolution(reference.ResolveExecutable(exe), resolution, "exe");
    return resolution;
  }

  LibraryResolver resolver;
  ReferenceResolver reference;
};

// A library exporting `own` (loads `path`, makes syscall own_nr, then calls
// the peer library's `peer` export) and `shared` (syscall shared_nr).
std::shared_ptr<const BinaryAnalysis> CycleLib(
    const std::string& soname, const std::string& own, const std::string& peer,
    const std::string& path, uint32_t own_nr, uint32_t shared_nr) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(soname);
  uint32_t peer_imp = builder.AddImport(peer);
  uint32_t path_off = builder.AddRodataString(path);
  FunctionBuilder own_fn(own);
  own_fn.EmitPrologue();
  own_fn.LeaRodata(disasm::kRdi, path_off);
  own_fn.MovRegImm32(disasm::kRax, own_nr);
  own_fn.Syscall();
  own_fn.CallImport(peer_imp);
  own_fn.EmitEpilogue();
  builder.AddFunction(own_fn.Finish(true));
  FunctionBuilder shared_fn("shared");
  shared_fn.MovRegImm32(disasm::kRax, shared_nr);
  shared_fn.Syscall();
  shared_fn.Ret();
  builder.AddFunction(shared_fn.Finish(true));
  return AnalyzeShared(builder.Build());
}

// liba and libb import each other's exports (a cross-binary cycle), and
// both export `shared`: the first-registered library's copy must win.
TEST(ReferenceResolver, CrossLibraryCycleAndFirstExporterWins) {
  auto liba = CycleLib("liba.so", "a_fn", "b_fn", "/proc/self/maps", 10, 20);
  auto libb = CycleLib("libb.so", "b_fn", "a_fn", "/dev/urandom", 11, 21);
  LibraryResolver resolver;
  ReferenceResolver reference;
  for (const auto& library : {liba, libb}) {
    ASSERT_TRUE(resolver.AddLibrary(library).ok());
    reference.AddLibrary(library);
  }

  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libb.so");
  uint32_t b_imp = builder.AddImport("b_fn");
  uint32_t shared_imp = builder.AddImport("shared");
  FunctionBuilder fn("_start");
  fn.CallImport(b_imp);
  fn.CallImport(shared_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto exe = AnalyzeShared(builder.Build());

  const auto expected = reference.ResolveExecutable(*exe);
  EXPECT_EQ(expected.footprint.syscalls, (std::set<int>{10, 11, 20}));
  EXPECT_EQ(expected.footprint.pseudo_paths,
            (std::set<std::string>{"/dev/urandom", "/proc/self/maps"}));
  auto resolution = resolver.ResolveExecutable(*exe);
  ExpectSameResolution(expected, resolution, "cycle");
  EXPECT_EQ(resolution.used_exports.at("liba.so"),
            (std::set<std::string>{"a_fn", "shared"}));
  EXPECT_EQ(resolution.used_exports.at("libb.so"),
            (std::set<std::string>{"b_fn"}));
  EXPECT_EQ(resolver.ExporterOf("shared"), "liba.so");
}

// The whole-library closure of libb binds its own `shared` to liba's copy,
// registered first: a shadowed export never contributes.
TEST(ReferenceResolver, WholeLibraryClosureFollowsShadowingExporter) {
  auto liba = CycleLib("liba.so", "a_fn", "b_fn", "/proc/self/maps", 10, 20);
  auto libb = CycleLib("libb.so", "b_fn", "a_fn", "/dev/urandom", 11, 21);
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(liba));
  ASSERT_NO_FATAL_FAILURE(pair.Add(libb));
  auto resolution = pair.resolver.ResolveWholeLibrary("libb.so");
  ASSERT_TRUE(resolution.ok());
  ExpectSameResolution(pair.reference.ResolveWholeLibrary(*libb),
                       resolution.value(), "libb.so");
  EXPECT_EQ(resolution.value().footprint.syscalls,
            (std::set<int>{10, 11, 20}));
  EXPECT_EQ(resolution.value().used_exports.at("liba.so"),
            (std::set<std::string>{"a_fn", "shared"}));
}

TEST(LibraryResolver, LinearChainThroughThreeLibraries) {
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib("libc3.so", {{"c", 3, {}}})));
  ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib("libb3.so", {{"b", 2, {"c"}}})));
  ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib("liba3.so", {{"a", 1, {"b"}}})));
  auto resolution = pair.Resolve(*CallingExe({"a"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(resolution.used_exports.size(), 3u);
  EXPECT_EQ(resolution.used_exports.at("libc3.so"),
            (std::set<std::string>{"c"}));
}

// a and b both call c: c's facts and its function are counted once.
TEST(LibraryResolver, DiamondPullsSharedExportOnce) {
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib("libd.so", {{"c", 3, {}}})));
  ASSERT_NO_FATAL_FAILURE(
      pair.Add(SpecLib("libab.so", {{"a", 1, {"c"}}, {"b", 2, {"c"}}})));
  auto resolution = pair.Resolve(*CallingExe({"a", "b"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(resolution.used_exports.at("libab.so"),
            (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(resolution.used_exports.at("libd.so"),
            (std::set<std::string>{"c"}));
  // _start, a, b, c.
  EXPECT_EQ(resolution.reachable_function_count, 4u);
}

TEST(LibraryResolver, ExportImportingItselfTerminates) {
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(
      pair.Add(SpecLib("libloop.so", {{"loop", 7, {"loop"}}})));
  auto resolution = pair.Resolve(*CallingExe({"loop"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{7}));
  EXPECT_EQ(resolution.used_exports.at("libloop.so"),
            (std::set<std::string>{"loop"}));
}

TEST(LibraryResolver, UnreachedExportsContributeNothing) {
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(
      pair.Add(SpecLib("libx.so", {{"used", 1, {}}, {"unused", 2, {}}})));
  ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib("liby.so", {{"isolated", 3, {}}})));
  auto resolution = pair.Resolve(*CallingExe({"used"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1}));
  EXPECT_EQ(resolution.used_exports.size(), 1u);
  EXPECT_EQ(resolution.used_exports.at("libx.so"),
            (std::set<std::string>{"used"}));
}

// 300 libraries, each export calling the next library's: the worklist
// resolves the whole chain without recursion.
TEST(LibraryResolver, LongCrossLibraryChain) {
  constexpr int kDepth = 300;
  ResolverPair pair;
  for (int i = kDepth - 1; i >= 0; --i) {
    std::vector<std::string> calls;
    if (i + 1 < kDepth) {
      calls.push_back("f" + std::to_string(i + 1));
    }
    ASSERT_NO_FATAL_FAILURE(pair.Add(SpecLib(
        "lib" + std::to_string(i) + ".so", {{"f" + std::to_string(i), i,
                                             calls}})));
  }
  auto resolution = pair.Resolve(*CallingExe({"f0"}));
  EXPECT_EQ(resolution.footprint.syscalls.size(), static_cast<size_t>(kDepth));
  EXPECT_EQ(resolution.used_exports.size(), static_cast<size_t>(kDepth));
  EXPECT_EQ(resolution.reachable_function_count, kDepth + 1u);
}

// ioctl/fcntl/prctl opcodes and a pseudo path found only inside a library
// export reach the executable's footprint.
TEST(LibraryResolver, VectoredOpsAndPathsThroughLibraryExport) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libdev.so");
  uint32_t path_off = builder.AddRodataString("/sys/class/net");
  FunctionBuilder fn("dev_probe");
  fn.EmitPrologue();
  fn.LeaRodata(disasm::kRdi, path_off);
  fn.MovRegImm32(disasm::kRax, 2);  // open
  fn.Syscall();
  fn.MovRegImm32(disasm::kRsi, 0x5401);  // ioctl TCGETS
  fn.MovRegImm32(disasm::kRax, 16);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRsi, 3);  // fcntl F_GETFL
  fn.MovRegImm32(disasm::kRax, 72);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRdi, 15);  // prctl PR_SET_NAME
  fn.MovRegImm32(disasm::kRax, 157);
  fn.Syscall();
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(true));
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(AnalyzeShared(builder.Build())));

  auto exe = CallingExe({"dev_probe"});
  EXPECT_TRUE(exe->FromEntry().footprint.syscalls.empty());
  const Footprint fp = pair.Resolve(*exe).footprint;
  EXPECT_EQ(fp.syscalls, (std::set<int>{2, 16, 72, 157}));
  EXPECT_EQ(fp.ioctl_ops, (std::set<uint32_t>{0x5401}));
  EXPECT_EQ(fp.fcntl_ops, (std::set<uint32_t>{3}));
  EXPECT_EQ(fp.prctl_ops, (std::set<uint32_t>{15}));
  EXPECT_EQ(fp.pseudo_paths, (std::set<std::string>{"/sys/class/net"}));
}

// An import no library exports, met two hops in, is still reported.
TEST(LibraryResolver, UnresolvedImportInsideLibraryReported) {
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(
      pair.Add(SpecLib("libgap.so", {{"outer", 5, {"missing_fn"}}})));
  auto resolution = pair.Resolve(*CallingExe({"outer"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{5}));
  EXPECT_EQ(resolution.unresolved_imports,
            (std::set<std::string>{"missing_fn"}));
}

TEST(LibraryResolver, EmptyResolverReportsEveryImport) {
  ResolverPair pair;
  auto resolution = pair.Resolve(*CallingExe({"open", "read"}));
  EXPECT_TRUE(resolution.footprint.syscalls.empty());
  EXPECT_TRUE(resolution.used_exports.empty());
  EXPECT_EQ(resolution.unresolved_imports,
            (std::set<std::string>{"open", "read"}));
  EXPECT_EQ(resolution.reachable_function_count, 1u);
}

TEST(LibraryResolver, SonamesKeepRegistrationOrder) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniUtilLib()).ok());
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  EXPECT_EQ(resolver.library_count(), 2u);
  EXPECT_EQ(resolver.sonames(),
            (std::vector<std::string>{"libutil.so", "libmini.so"}));
  ASSERT_NE(resolver.ExportReachOf("libmini.so"), nullptr);
  EXPECT_EQ(resolver.ExportReachOf("libmini.so")->size(), 3u);
  EXPECT_EQ(resolver.ExportReachOf("libmissing.so"), nullptr);
}

// An export that tail-jumps through the PLT into another library pulls
// that library's export in.
TEST(LibraryResolver, TailJumpAcrossLibrariesFollowed) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libwrap.so");
  uint32_t write_imp = builder.AddImport("write");
  FunctionBuilder fn("wrapped_write");
  fn.MovRegImm32(disasm::kRax, 39);  // getpid
  fn.Syscall();
  fn.TailJmpImport(write_imp);
  builder.AddFunction(fn.Finish(true));
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(MiniLibc()));
  ASSERT_NO_FATAL_FAILURE(pair.Add(AnalyzeShared(builder.Build())));
  auto resolution = pair.Resolve(*CallingExe({"wrapped_write"}));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{1, 39}));
  EXPECT_EQ(resolution.used_exports.at("libmini.so"),
            (std::set<std::string>{"write"}));
}

// The entry reaches an import only through a local helper.
TEST(LibraryResolver, ImportsFollowedFromLocalCallees) {
  ElfBuilder builder(BinaryType::kExecutable);
  uint32_t read_imp = builder.AddImport("read");
  FunctionBuilder helper("helper");
  helper.CallImport(read_imp);
  helper.Ret();
  uint32_t helper_idx = builder.AddFunction(helper.Finish(false));
  FunctionBuilder start("_start");
  start.CallLocal(helper_idx);
  start.Ret();
  uint32_t start_idx = builder.AddFunction(start.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(start_idx).ok());
  ResolverPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Add(MiniLibc()));
  auto resolution = pair.Resolve(*AnalyzeShared(builder.Build()));
  EXPECT_EQ(resolution.footprint.syscalls, (std::set<int>{0}));
  EXPECT_EQ(resolution.used_exports.at("libmini.so"),
            (std::set<std::string>{"read"}));
}

TEST(LibraryResolver, FromSymbolsDeduplicatesRoots) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  auto once = resolver.ResolveFromSymbols({"printf"});
  auto twice = resolver.ResolveFromSymbols({"printf", "printf"});
  ExpectSameResolution(once, twice, "printf");
  // printf and its local write helper, counted once.
  EXPECT_EQ(once.reachable_function_count, 2u);
  EXPECT_EQ(twice.reachable_function_count, 2u);
}

// A 3,000-deep chain of local calls: reachability is iterative, so the
// whole chain is found without exhausting the stack.
TEST(BinaryAnalyzer, DeepLocalCallChain) {
  constexpr uint32_t kDepth = 3000;
  ElfBuilder builder(BinaryType::kExecutable);
  uint32_t next = 0;
  for (uint32_t i = 0; i < kDepth; ++i) {
    FunctionBuilder fn("f" + std::to_string(i));
    if (i == 0) {
      fn.MovRegImm32(disasm::kRax, 60);  // exit, at the bottom
      fn.Syscall();
    } else {
      fn.CallLocal(next);
    }
    fn.Ret();
    next = builder.AddFunction(fn.Finish(false));
  }
  ASSERT_TRUE(builder.SetEntryFunction(next).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = analysis.FromEntry();
  EXPECT_EQ(reach.function_count, kDepth);
  EXPECT_EQ(reach.footprint.syscalls, (std::set<int>{60}));
}

// Two exports sharing one unexported helper: each export's reach includes
// the helper's facts, and the helper is not itself an export.
TEST(BinaryAnalyzer, PerExportReachIncludesSharedLocalHelper) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libhelp.so");
  FunctionBuilder helper("helper");
  helper.MovRegImm32(disasm::kRax, 9);
  helper.Syscall();
  helper.Ret();
  uint32_t helper_idx = builder.AddFunction(helper.Finish(false));
  for (const auto& [name, nr] :
       std::vector<std::pair<std::string, uint32_t>>{{"x", 1}, {"y", 2}}) {
    FunctionBuilder fn(name);
    fn.EmitPrologue();
    fn.MovRegImm32(disasm::kRax, nr);
    fn.Syscall();
    fn.CallLocal(helper_idx);
    fn.EmitEpilogue();
    builder.AddFunction(fn.Finish(true));
  }
  auto library = AnalyzeShared(builder.Build());
  auto exports = library->PerExportReachable();
  ASSERT_EQ(exports.size(), 2u);
  EXPECT_EQ(exports.at("x").footprint.syscalls, (std::set<int>{1, 9}));
  EXPECT_EQ(exports.at("y").footprint.syscalls, (std::set<int>{2, 9}));
  EXPECT_EQ(exports.at("x").function_count, 2u);
  EXPECT_FALSE(exports.contains("helper"));
}

TEST(Footprint, MergeAndCounts) {
  Footprint a;
  a.syscalls = {1, 2};
  a.ioctl_ops = {0x5401};
  a.unknown_syscall_sites = 1;
  Footprint b;
  b.syscalls = {2, 3};
  b.pseudo_paths = {"/dev/null"};
  b.unknown_syscall_sites = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.syscalls, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(a.unknown_syscall_sites, 3);
  EXPECT_EQ(a.ApiCount(), 5u);
  EXPECT_FALSE(a.Empty());
  EXPECT_TRUE(Footprint().Empty());
}

}  // namespace
}  // namespace lapis::analysis
