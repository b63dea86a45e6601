//go:build !linux

package main

func fsType(string) string { return "unknown" }

func settleIO() {}

func cpuTicks() (steal, total uint64, ok bool) { return 0, 0, false }
