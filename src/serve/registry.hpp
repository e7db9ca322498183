// Serving-layer names for the NF catalog (nf/catalog.hpp), for code that
// resolves NFs through this header.
#pragma once

#include "nf/catalog.hpp"

namespace clara::serve {

using NfEntry = nf::CatalogEntry;
using nf::find_nf;
using nf::nf_names;

inline const std::vector<NfEntry>& nf_registry() { return nf::catalog(); }

}  // namespace clara::serve
