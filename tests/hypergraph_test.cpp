// Tests for the hypergraph structure, including the paper's Figure 5 /
// Equation 2-3 worked example (two routing paths over eight links).
#include <gtest/gtest.h>

#include "metis/hypergraph/hypergraph.h"

namespace metis::hypergraph {
namespace {

// Builds the Figure 5(c) hypergraph: 8 links (vertices 0..7 standing for
// links 1..8) and two paths: e1 covers {2,5,6}, e2 covers {1,3,6,8}
// (1-indexed in the paper).
Hypergraph figure5() {
  Hypergraph h(8, 2);
  for (std::size_t v : {2, 5, 6}) h.connect(0, v - 1);
  for (std::size_t v : {1, 3, 6, 8}) h.connect(1, v - 1);
  return h;
}

TEST(Hypergraph, Figure5IncidenceMatrixMatchesEq3) {
  Hypergraph h = figure5();
  nn::Tensor incidence = h.incidence_matrix();
  // Eq. 3 row 1: 0 1 0 0 1 1 0 0
  const double row1[8] = {0, 1, 0, 0, 1, 1, 0, 0};
  // Eq. 3 row 2: 1 0 1 0 0 1 0 1
  const double row2[8] = {1, 0, 1, 0, 0, 1, 0, 1};
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(incidence(0, v), row1[v]) << "vertex " << v;
    EXPECT_DOUBLE_EQ(incidence(1, v), row2[v]) << "vertex " << v;
  }
}

TEST(Hypergraph, Figure5ConnectionListMatchesEq2) {
  Hypergraph h = figure5();
  auto cs = h.connections();
  // Eq. 2: {(2,e1),(5,e1),(6,e1),(1,e2),(3,e2),(6,e2),(8,e2)} — 7 pairs.
  EXPECT_EQ(cs.size(), 7u);
  EXPECT_EQ(h.connection_count(), 7u);
}

TEST(Hypergraph, ConnectIsIdempotent) {
  Hypergraph h(4, 1);
  h.connect(0, 2);
  h.connect(0, 2);
  EXPECT_EQ(h.connection_count(), 1u);
}

TEST(Hypergraph, ContainsAndDegree) {
  Hypergraph h = figure5();
  EXPECT_TRUE(h.contains(0, 5));   // link 6 on e1
  EXPECT_TRUE(h.contains(1, 5));   // link 6 on e2 (shared link)
  EXPECT_FALSE(h.contains(0, 0));
  EXPECT_EQ(h.vertex_degree(5), 2u);  // link 6 carried by both paths
  EXPECT_EQ(h.vertex_degree(3), 0u);  // link 4 unused
}

TEST(Hypergraph, EdgesOfVertex) {
  Hypergraph h = figure5();
  auto edges = h.edges_of(5);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], 0u);
  EXPECT_EQ(edges[1], 1u);
}

TEST(Hypergraph, BoundsChecked) {
  Hypergraph h(4, 2);
  EXPECT_THROW(h.connect(2, 0), std::logic_error);
  EXPECT_THROW(h.connect(0, 4), std::logic_error);
  EXPECT_THROW((void)h.vertices_of(5), std::logic_error);
}

TEST(Hypergraph, ValidateChecksFeatureShapes) {
  Hypergraph h(4, 2);
  h.connect(0, 1);
  h.vertex_features = nn::Tensor(4, 1, 1.0);
  h.edge_features = nn::Tensor(2, 3, 0.0);
  h.validate();
  h.vertex_features = nn::Tensor(3, 1, 1.0);  // wrong row count
  EXPECT_THROW(h.validate(), std::logic_error);
}

TEST(Hypergraph, NfvPlacementFormulation) {
  // Appendix B.1: servers = hyperedges? No — servers are hyperedges in the
  // figure (each server consolidates several NF instances); here 4 servers
  // and 4 NF types, with NF1 replicated on 3 servers as in Figure 21.
  Hypergraph h(4, 4);  // vertices = NFs, hyperedges = servers
  h.edge_names = {"server1", "server2", "server3", "server4"};
  h.vertex_names = {"NF1", "NF2", "NF3", "NF4"};
  // Server 1 hosts NF1, NF2; server 2 hosts NF1, NF3, NF4;
  // server 3 hosts NF1, NF2, NF4; server 4 hosts NF3, NF4.
  for (std::size_t v : {0, 1}) h.connect(0, v);
  for (std::size_t v : {0, 2, 3}) h.connect(1, v);
  for (std::size_t v : {0, 1, 3}) h.connect(2, v);
  for (std::size_t v : {2, 3}) h.connect(3, v);
  h.validate();
  EXPECT_EQ(h.vertex_degree(0), 3u);  // NF1 replicated 3x
  EXPECT_EQ(h.connection_count(), 10u);
}

}  // namespace
}  // namespace metis::hypergraph
