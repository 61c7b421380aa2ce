// Package kv3d is a reproduction of "Integrated 3D-Stacked Server
// Designs for Increasing Physical Density of Key-Value Stores"
// (Gutierrez et al., ASPLOS 2014).
//
// It contains two halves that meet in the experiments:
//
// The functional half is a production-quality memcached implementation —
// slab allocator, tagged open-addressing index, CLOCK eviction, the
// full ASCII protocol over TCP, a client, and a
// consistent-hash ring (internal/kvstore, internal/protocol,
// internal/kvserver, internal/kvclient, internal/cluster).
//
// The modeling half is a discrete-event simulation of the paper's
// Mercury (3D DRAM) and Iridium (3D NAND Flash) stacked servers:
// core timing models, cache hierarchy, DRAM/Flash devices, the 10GbE
// path, one-stack request simulation, and the power/area composition of
// a 1.5U box (internal/sim, internal/cpu, internal/cache,
// internal/memmodel, internal/netmodel, internal/stackmodel,
// internal/phys, internal/server, internal/baseline).
//
// internal/experiments regenerates every table and figure of the paper,
// plus extension studies that check a number the paper states (§6.5
// cooling, bank-level DRAM) or measure the store's own mechanisms;
// cmd/kv3d-bench prints them, golden files in its testdata pin their
// output, and bench_test.go exposes each as a Go benchmark. See
// README.md, DESIGN.md and EXPERIMENTS.md.
package kv3d
