#include "hierarchy/tree_serialization.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "domain/domain_factory.h"
#include "io/file_util.h"

namespace privhp {

namespace {
// v1 header: magic, domain name (informational), node count.
// v2 header: magic, domain name, dimension — both validated on load so a
// tree cannot be sampled through the wrong domain (e.g. a dim-1 tree
// loaded as dim-2 would fabricate coordinates).
constexpr char kMagicV1[] = "privhp-tree-v1";
constexpr const char* kMagicV2 = kTreeMagicV2;
}  // namespace

Result<PartitionTree> LoadTree(const Domain* domain, std::istream* is) {
  if (domain == nullptr) {
    return Status::InvalidArgument("domain must not be null");
  }
  std::string magic;
  if (!std::getline(*is, magic) ||
      (magic != kMagicV1 && magic != kMagicV2)) {
    return Status::IOError("bad tree header (expected '" +
                           std::string(kMagicV1) + "' or '" +
                           std::string(kMagicV2) + "')");
  }
  std::string domain_name;
  if (!std::getline(*is, domain_name)) {
    return Status::IOError("missing domain line");
  }
  if (domain_name != domain->Name()) {
    return Status::InvalidArgument(
        "tree was serialized over domain '" + domain_name +
        "' but is being loaded over '" + domain->Name() +
        "'; samples would be fabricated");
  }
  if (magic == kMagicV2) {
    int dimension = 0;
    if (!((*is) >> dimension)) {
      return Status::IOError("missing dimension line");
    }
    if (dimension != domain->dimension()) {
      return Status::InvalidArgument(
          "tree was serialized with dimension " + std::to_string(dimension) +
          " but the loading domain has dimension " +
          std::to_string(domain->dimension()));
    }
  }
  size_t num_nodes = 0;
  if (!((*is) >> num_nodes) || num_nodes == 0) {
    return Status::IOError("missing or zero node count");
  }

  // Rebuild by replaying the arena. Node 0 must be the root; children
  // always carry larger ids than parents (arena append order), so a single
  // forward pass with AddChildren in recorded order reconstructs the exact
  // arena when we process parents in id order.
  struct RawNode {
    int level;
    uint64_t index;
    double count;
    NodeId left;
    NodeId right;
  };
  std::vector<RawNode> raw(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    RawNode& r = raw[i];
    if (!((*is) >> r.level >> r.index >> r.count >> r.left >> r.right)) {
      return Status::IOError("truncated tree at node " + std::to_string(i));
    }
  }

  // Arena replay: children occupy consecutive slots in append order, so
  // replaying AddChildren on parents ordered by their recorded left-child
  // id reconstructs the exact arena (parents always precede children, but
  // sibling pairs need not follow their parent immediately —
  // GrowPartition appends them in hot-node order).
  std::vector<size_t> parents;
  for (size_t i = 0; i < num_nodes; ++i) {
    const bool has_left = raw[i].left != kInvalidNode;
    const bool has_right = raw[i].right != kInvalidNode;
    if (has_left != has_right) {
      return Status::IOError("node " + std::to_string(i) +
                             " has exactly one child");
    }
    if (has_left) {
      if (raw[i].right != raw[i].left + 1 || raw[i].left <= 0 ||
          static_cast<size_t>(raw[i].right) >= num_nodes) {
        return Status::IOError("node " + std::to_string(i) +
                               " has malformed child ids");
      }
      parents.push_back(i);
    }
  }
  std::sort(parents.begin(), parents.end(),
            [&](size_t a, size_t b) { return raw[a].left < raw[b].left; });

  PartitionTree tree(domain);
  for (size_t p : parents) {
    if (static_cast<size_t>(raw[p].left) != tree.num_nodes() ||
        p >= tree.num_nodes()) {
      return Status::IOError("node " + std::to_string(p) +
                             " children out of arena order");
    }
    tree.AddChildren(static_cast<NodeId>(p));
  }
  if (tree.num_nodes() != num_nodes) {
    return Status::IOError("arena replay produced " +
                           std::to_string(tree.num_nodes()) +
                           " nodes, file declared " +
                           std::to_string(num_nodes));
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    TreeNode& n = tree.node(static_cast<NodeId>(i));
    if (n.cell.level != raw[i].level || n.cell.index != raw[i].index ||
        n.left != raw[i].left || n.right != raw[i].right) {
      return Status::IOError("node " + std::to_string(i) +
                             " does not match the replayed arena");
    }
    n.count = raw[i].count;
  }
  return tree;
}

Status SaveTreeToFile(const PartitionTree& tree, const std::string& path) {
  // Serialize into memory, then write temp + fsync + rename (in binary,
  // byte-exact): a crash mid-save can no longer truncate an existing
  // artifact in place, and a failed save leaves no partial file behind.
  std::ostringstream os;
  PRIVHP_RETURN_NOT_OK(SaveTree(tree, &os));
  return WriteFileAtomic(path, os.str());
}

Result<PartitionTree> LoadTreeFromFile(const Domain* domain,
                                       const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  return LoadTree(domain, &in);
}

Result<SelfDescribedTree> LoadSelfDescribedTree(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string magic;
  std::string domain_name;
  int dimension = 0;
  if (!std::getline(in, magic) || !std::getline(in, domain_name)) {
    return Status::IOError("truncated tree header in " + path);
  }
  if (magic == kMagicV1) {
    return Status::InvalidArgument(
        "tree format v2 required (v1 files carry no dimension and cannot "
        "be validated): " +
        path);
  }
  if (!(in >> dimension)) {
    return Status::IOError("missing dimension line in " + path);
  }
  PRIVHP_ASSIGN_OR_RETURN(std::unique_ptr<Domain> domain,
                          MakeDomainByName(domain_name, dimension));
  // LoadTree re-reads the header and re-validates name, dimension and
  // structure against the rebuilt domain.
  in.clear();
  in.seekg(0);
  PRIVHP_ASSIGN_OR_RETURN(PartitionTree tree, LoadTree(domain.get(), &in));
  return SelfDescribedTree{std::move(domain), std::move(tree)};
}

}  // namespace privhp
