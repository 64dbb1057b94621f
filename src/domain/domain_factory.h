// Reconstructing a Domain from its serialized identity.
//
// A released tree file records the domain name and dimension (format v2);
// the tree loader (LoadSelfDescribedTree) and the paged artifact reader
// use this factory to rebuild the matching domain when loading an
// artifact by path, so a serving or packing process needs no out-of-band
// knowledge of how an artifact was built. Only
// domains whose geometry is fully determined by (name, dimension) are
// constructible — parameterized domains (GeoDomain bounding boxes, custom
// BoxDomains) must be supplied by the caller instead.

#ifndef PRIVHP_DOMAIN_DOMAIN_FACTORY_H_
#define PRIVHP_DOMAIN_DOMAIN_FACTORY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "domain/domain.h"

namespace privhp {

/// \brief Builds the domain serialized as \p name with \p dimension.
///
/// Supported: "interval[0,1]" (d = 1), "hypercube[0,1]^D" (D >= 1, must
/// equal \p dimension), "ipv4" (d = 1). Anything else returns
/// NotImplemented; a name/dimension mismatch returns InvalidArgument.
Result<std::unique_ptr<Domain>> MakeDomainByName(const std::string& name,
                                                 int dimension);

}  // namespace privhp

#endif  // PRIVHP_DOMAIN_DOMAIN_FACTORY_H_
