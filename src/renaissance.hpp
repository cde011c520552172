// Renaissance — a self-stabilizing distributed in-band SDN control plane.
// C++ reproduction of Canini, Salem, Schiff, Schiller, Schmid (ICDCS 2018).
//
// Umbrella header: pulls in the public API surface used by the examples and
// benchmark harnesses. Individual subsystem headers can be included directly
// for finer-grained use.
#pragma once

#include "core/controller.hpp"        // Algorithm 2
#include "core/legitimacy.hpp"        // Definition 1 checker
#include "detect/theta_detector.hpp"  // local topology discovery
#include "faults/injector.hpp"        // benign + transient fault injection
#include "flows/connectivity.hpp"     // sparse unit-capacity max-flow
#include "flows/graph.hpp"            // topology views & graph algorithms
#include "flows/my_rules.hpp"         // kappa-fault-resilient rule compiler
#include "flows/resilient_paths.hpp"  // verification helpers
#include "net/simulator.hpp"          // discrete-event substrate
#include "scenario/library.hpp"       // built-in fault-timeline scenarios
#include "scenario/merge.hpp"         // shard-report merging
#include "scenario/rows.hpp"          // figure rows from raw reports
#include "scenario/runner.hpp"        // parallel campaign runner
#include "scenario/scenario.hpp"      // declarative scenario model
#include "sim/experiment.hpp"         // experiment harness
#include "switchd/abstract_switch.hpp"  // the abstract SDN switch
#include "tags/tag_generator.hpp"     // bounded round tags
#include "tcp/host.hpp"               // data-plane hosts + TCP Reno
#include "topo/generators.hpp"        // fat-tree / random-WAN generators
#include "topo/loaders.hpp"           // Rocketfuel / GraphML / edge-list files
#include "topo/source.hpp"            // topology spec registry (resolve)
#include "topo/topologies.hpp"        // the five paper topologies
#include "transport/endpoint.hpp"     // self-stabilizing end-to-end channel
#include "util/stats.hpp"             // violin summaries, Pearson r
