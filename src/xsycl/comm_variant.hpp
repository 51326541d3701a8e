#pragma once

// The five kernel communication variants studied by the paper (§5.3-5.4).
// kBroadcast restructures the interaction loop and therefore does not use
// exchange(); the remaining four share the half-warp loop shape and differ
// only in how partner state crosses lanes.
//
// kNative is the selector value of the production path: the owner-computes
// CPU driver of sph/native.hpp, which emulates no sub-group at all.  It is
// the default of every kernel option struct but is deliberately absent from
// kAllVariants and kExchangeVariants, so the study enumerations, profiles
// and figures cover the five GPU variants only.

#include <array>
#include <string>

#include "xsycl/group_algorithms.hpp"

namespace hacc::xsycl {

enum class CommVariant {
  kSelect,        // sycl::select_from_group (XOR schedule)
  kMemory32,      // work-group local memory, 32-bit components
  kMemoryObject,  // work-group local memory, whole objects
  kBroadcast,     // restructured loop using group_broadcast
  kVISA,          // inline-vISA specialized butterfly shuffle
  kNative,        // production CPU driver (sph/native.hpp); not a study variant
};

inline constexpr std::array<CommVariant, 5> kAllVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kBroadcast, CommVariant::kVISA};

// Exchange-style variants (everything except kBroadcast).
inline constexpr std::array<CommVariant, 4> kExchangeVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kVISA};

inline const char* to_string(CommVariant v) {
  switch (v) {
    case CommVariant::kSelect: return "Select";
    case CommVariant::kMemory32: return "Memory, 32-bit";
    case CommVariant::kMemoryObject: return "Memory, Object";
    case CommVariant::kBroadcast: return "Broadcast";
    case CommVariant::kVISA: return "vISA";
    case CommVariant::kNative: return "Native";
  }
  return "?";
}

// Parses the names printed by to_string (and compact aliases for CLI use).
bool parse_variant(const std::string& name, CommVariant& out);

// Partner lane this variant pairs `lane` with on `round`.
inline int partner_lane(CommVariant v, int lane, int round, int sg_size) {
  return v == CommVariant::kVISA ? butterfly_partner(lane, round, sg_size)
                                 : xor_partner(lane, round, sg_size);
}

// Dispatch of the partner-state exchange for the four exchange variants.
template <typename T>
inline Varying<T> exchange(SubGroup& sg, const Varying<T>& x, int round, CommVariant v) {
  switch (v) {
    case CommVariant::kSelect: return exchange_select(sg, x, round);
    case CommVariant::kMemory32: return exchange_local32(sg, x, round);
    case CommVariant::kMemoryObject: return exchange_local_object(sg, x, round);
    case CommVariant::kVISA: return exchange_visa(sg, x, round);
    case CommVariant::kBroadcast:  // restructured loop; no exchange
    case CommVariant::kNative:     // owner-computes loop; no lanes to exchange
      break;
  }
  assert(false && "kBroadcast and kNative kernels do not call exchange()");
  return x;
}

// Local-memory bytes one sub-group needs to exchange objects of `obj_bytes`
// under this variant (paper §5.3.1: object size × work-items).
inline std::size_t local_bytes_for(CommVariant v, int sg_size, std::size_t obj_bytes) {
  switch (v) {
    case CommVariant::kMemory32: return 4 * static_cast<std::size_t>(sg_size);
    case CommVariant::kMemoryObject: return obj_bytes * static_cast<std::size_t>(sg_size);
    default: return 0;
  }
}

inline bool parse_variant(const std::string& name, CommVariant& out) {
  if (name == "Select" || name == "select") { out = CommVariant::kSelect; return true; }
  if (name == "Memory, 32-bit" || name == "memory32" || name == "mem32") {
    out = CommVariant::kMemory32;
    return true;
  }
  if (name == "Memory, Object" || name == "memory_object" || name == "memobj") {
    out = CommVariant::kMemoryObject;
    return true;
  }
  if (name == "Broadcast" || name == "broadcast") { out = CommVariant::kBroadcast; return true; }
  if (name == "vISA" || name == "visa") { out = CommVariant::kVISA; return true; }
  if (name == "Native" || name == "native") { out = CommVariant::kNative; return true; }
  return false;
}

}  // namespace hacc::xsycl
