#include "src/corpus/dataset_io.h"

#include <cstdio>

#include "src/util/io.h"

namespace lapis::corpus {

namespace {

constexpr uint32_t kMagic = 0x4c505354;  // "LPST"
constexpr uint32_t kVersion = kStudyArtifactVersion;

void SerializeInterner(const core::StringInterner& interner,
                       ByteWriter& writer) {
  writer.PutU32(static_cast<uint32_t>(interner.size()));
  for (uint32_t id = 0; id < interner.size(); ++id) {
    writer.PutLengthPrefixedString(interner.NameOf(id));
  }
}

Result<core::StringInterner> DeserializeInterner(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  core::StringInterner interner;
  for (uint32_t id = 0; id < count; ++id) {
    LAPIS_ASSIGN_OR_RETURN(std::string name,
                           reader.ReadLengthPrefixedString());
    if (interner.Intern(name) != id) {
      return CorruptDataError("duplicate interned string: " + name);
    }
  }
  return interner;
}

}  // namespace

Status SerializeStudy(const StudyResult& study, ByteWriter& writer) {
  if (study.dataset == nullptr || !study.dataset->finalized()) {
    return FailedPreconditionError("study has no finalized dataset");
  }
  const core::StudyDataset& dataset = *study.dataset;
  writer.PutU32(kMagic);
  writer.PutU32(kVersion);
  writer.PutU64(dataset.total_installations());
  writer.PutU32(static_cast<uint32_t>(dataset.package_count()));
  for (uint32_t pkg = 0; pkg < dataset.package_count(); ++pkg) {
    writer.PutLengthPrefixedString(dataset.PackageName(pkg));
    writer.PutU64(dataset.InstallCount(pkg));
    const auto& deps = dataset.DirectDependencies(pkg);
    writer.PutU32(static_cast<uint32_t>(deps.size()));
    for (core::PackageId dep : deps) {
      writer.PutU32(dep);
    }
    const auto footprint = dataset.FootprintOrdinals(pkg);
    writer.PutU32(static_cast<uint32_t>(footprint.size()));
    for (uint32_t ordinal : footprint) {
      writer.PutI64(dataset.Apis()[ordinal].Encode());
    }
  }
  SerializeInterner(study.path_interner, writer);
  SerializeInterner(study.libc_interner, writer);
  // v2: audit-evidence section.
  writer.PutU8(study.evidence_kinds_mask);
  writer.PutU32(static_cast<uint32_t>(study.evidence_observed.size()));
  for (const core::ApiId& api : study.evidence_observed) {
    writer.PutI64(api.Encode());
  }
  return Status::Ok();
}

Result<StudyArtifact> DeserializeStudy(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return CorruptDataError("bad study artifact magic");
  }
  LAPIS_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != 1 && version != kVersion) {
    return UnimplementedError("unsupported artifact version " +
                              std::to_string(version));
  }
  LAPIS_ASSIGN_OR_RETURN(uint64_t installations, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(uint32_t package_count, reader.ReadU32());

  StudyArtifact artifact;
  artifact.dataset =
      std::make_unique<core::StudyDataset>(package_count, installations);
  for (uint32_t pkg = 0; pkg < package_count; ++pkg) {
    LAPIS_ASSIGN_OR_RETURN(std::string name,
                           reader.ReadLengthPrefixedString());
    LAPIS_RETURN_IF_ERROR(artifact.dataset->SetPackageName(pkg, name));
    LAPIS_ASSIGN_OR_RETURN(uint64_t installs, reader.ReadU64());
    LAPIS_RETURN_IF_ERROR(artifact.dataset->SetInstallCount(pkg, installs));
    LAPIS_ASSIGN_OR_RETURN(uint32_t dep_count, reader.ReadU32());
    std::vector<core::PackageId> deps;
    deps.reserve(dep_count);
    for (uint32_t i = 0; i < dep_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(uint32_t dep, reader.ReadU32());
      deps.push_back(dep);
    }
    LAPIS_RETURN_IF_ERROR(
        artifact.dataset->SetDependencies(pkg, std::move(deps)));
    LAPIS_ASSIGN_OR_RETURN(uint32_t api_count, reader.ReadU32());
    std::vector<core::ApiId> footprint;
    footprint.reserve(api_count);
    for (uint32_t i = 0; i < api_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(int64_t encoded, reader.ReadI64());
      footprint.push_back(core::ApiId::Decode(encoded));
    }
    LAPIS_RETURN_IF_ERROR(
        artifact.dataset->SetFootprint(pkg, std::move(footprint)));
  }
  LAPIS_ASSIGN_OR_RETURN(artifact.path_interner,
                         DeserializeInterner(reader));
  LAPIS_ASSIGN_OR_RETURN(artifact.libc_interner,
                         DeserializeInterner(reader));
  if (version >= 2) {
    LAPIS_ASSIGN_OR_RETURN(artifact.evidence_kinds_mask, reader.ReadU8());
    LAPIS_ASSIGN_OR_RETURN(uint32_t observed_count, reader.ReadU32());
    for (uint32_t i = 0; i < observed_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(int64_t encoded, reader.ReadI64());
      artifact.evidence_observed.insert(core::ApiId::Decode(encoded));
    }
  }
  LAPIS_RETURN_IF_ERROR(artifact.dataset->Finalize());
  return artifact;
}

Status SaveStudy(const StudyResult& study, const std::string& path) {
  ByteWriter writer;
  LAPIS_RETURN_IF_ERROR(SerializeStudy(study, writer));
  // Atomic publication: a reader (e.g. lapis_serve catching SIGHUP mid-
  // export) sees either the previous complete artifact or this one, never
  // a torn prefix.
  return io::AtomicWriteFile(path, writer.bytes().data(), writer.size());
}

Result<StudyArtifact> LoadStudy(const std::string& path) {
  LAPIS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      io::ReadFileBytes(path, io::Profile::kArtifactIo));
  ByteReader reader(bytes);
  return DeserializeStudy(reader);
}

}  // namespace lapis::corpus
