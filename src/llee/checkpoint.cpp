#include "llee/checkpoint.h"

#include <tuple>

#include "llee/envelope.h"
#include "llee/mcode_io.h"
#include "support/statistic.h"

namespace llva {

namespace {

constexpr char kMagic[4] = {'L', 'V', 'C', 'K'};

Statistic NumCheckpointsCaptured(
    "vm.checkpoints_captured",
    "VM checkpoints captured (sealed blobs produced)");

Statistic NumCheckpointsRestored(
    "vm.checkpoints_restored",
    "VM checkpoints restored into a fresh context");

} // namespace

std::vector<uint8_t>
captureCheckpoint(uint64_t moduleHash, const ExecutionContext &ctx,
                  CodeManager &cm, const EdgeProfile *profile,
                  const MachineSimulator *sim)
{
    ByteWriter w;
    w.writeU64(moduleHash);
    w.writeString(cm.target().name());
    w.writeByte(cm.options().optLevel);

    ctx.serialize(w);

    if (profile) {
        std::vector<uint8_t> pbytes = writeEdgeProfile(*profile);
        w.writeVaruint(pbytes.size());
        w.writeBytes(pbytes.data(), pbytes.size());
    } else {
        w.writeVaruint(0);
    }

    // Code-cache index. Entries are serialized inside the
    // enumeration callback — the manager holds its shared lock for
    // the whole walk, so no body can be retired mid-serialization.
    // Interpreter pins travel with an empty payload: the pin itself
    // is the information (do not walk the failing ladder again).
    std::vector<std::tuple<std::string, uint8_t,
                           std::vector<uint8_t>>> entries;
    cm.forEachCached([&](const Function *f, uint8_t tier,
                         const MachineFunction *mf) {
        entries.emplace_back(f->name(), tier, cacheEntryPayload(mf));
    });
    w.writeVaruint(entries.size());
    for (const auto &[name, tier, bytes] : entries) {
        w.writeString(name);
        w.writeByte(tier);
        w.writeVaruint(bytes.size());
        w.writeBytes(bytes.data(), bytes.size());
    }

    if (sim && sim->paused()) {
        w.writeByte(1);
        sim->serializeSuspended(w);
    } else {
        w.writeByte(0);
    }

    ++NumCheckpointsCaptured;
    return sealBlob(kMagic, kCheckpointVersion, w.takeBytes());
}

Expected<CheckpointRestoreStats>
restoreCheckpoint(const std::vector<uint8_t> &sealed,
                  uint64_t moduleHash, ExecutionContext &ctx,
                  CodeManager &cm, EdgeProfile *profile,
                  MachineSimulator *sim)
{
    std::vector<uint8_t> payload;
    EnvelopeStatus st =
        openBlob(sealed, kMagic, kCheckpointVersion, payload);
    if (st != EnvelopeStatus::Ok)
        return Error(std::string("checkpoint envelope is ") +
                     envelopeStatusName(st));

    const Module &m = ctx.module();
    try {
        ByteReader r(payload.data(), payload.size());
        if (r.readU64() != moduleHash)
            return Error("checkpoint was taken against different "
                         "virtual object code");
        std::string fromTarget = r.readString();
        uint8_t fromOptLevel = r.readByte();
        (void)fromOptLevel; // informational; tiers travel per entry

        if (!ctx.restore(r))
            return Error("checkpoint execution state names "
                         "functions this module does not define");

        // A sealed blob's lengths are still untrusted (its CRC is no
        // MAC): check each against the bytes left before sizing a
        // buffer by it.
        CheckpointRestoreStats stats;
        uint64_t plen = r.readVaruint();
        if (plen > r.remaining())
            return Error("checkpoint payload truncated");
        if (plen) {
            std::vector<uint8_t> pbytes(plen);
            r.readBytes(pbytes.data(), plen);
            Expected<EdgeProfile> prof = readEdgeProfile(pbytes);
            if (!prof)
                return Error("checkpoint profile damaged: " +
                             prof.error().message());
            if (profile) {
                *profile = prof.take();
                stats.profileRestored = true;
            }
        }

        // Code entries: same-target entries pass the storage
        // cache's entry rule (installCacheEntry) — a pin, or a body
        // validated against the module and installed at its
        // recorded tier — and are rejected otherwise. Entries from a
        // different target ISA are Incompatible — dropped and healed
        // by on-demand retranslation, exactly like an incompatible
        // storage-cache entry. Interpreter pins also only carry over
        // same-target: a ladder that failed on one ISA says nothing
        // about another's.
        const bool sameTarget = fromTarget == cm.target().name();
        uint64_t nCode = r.readVaruint();
        for (uint64_t i = 0; i < nCode; ++i) {
            std::string name = r.readString();
            uint8_t tier = r.readByte();
            uint64_t len = r.readVaruint();
            if (len > r.remaining())
                return Error("checkpoint payload truncated");
            std::vector<uint8_t> bytes(len);
            r.readBytes(bytes.data(), len);

            const Function *f = m.getFunction(name);
            if (!f || f->isDeclaration()) {
                ++stats.codeRejected;
                continue;
            }
            if (!sameTarget)
                ++stats.codeIncompatible;
            else if (installCacheEntry(cm, m, f, tier, bytes))
                ++stats.codeRestored;
            else
                ++stats.codeRejected;
        }

        if (r.readByte()) {
            stats.suspended = true;
            if (!sameTarget)
                return Error(
                    "suspended checkpoint captured on target '" +
                    fromTarget + "' cannot be restored on '" +
                    cm.target().name() +
                    "' (cross-ISA migration needs a quiescent "
                    "checkpoint)");
            if (!sim)
                return Error("suspended checkpoint needs a "
                             "simulator to restore into");
            if (!sim->restoreSuspended(r))
                return Error("suspended activation does not match "
                             "the retranslated code");
        }

        ++NumCheckpointsRestored;
        return stats;
    } catch (const FatalError &) {
        return Error("checkpoint payload truncated");
    }
}

} // namespace llva
