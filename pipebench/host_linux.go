//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x2fc12fc1: "zfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x858458f6: "ramfs",
		0x01021997: "9p",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// settleIO writes back every dirty page and commits the filesystem
// journal, so the writes and deletes of one pipeline job do not run in the
// background of the next.
func settleIO() { syscall.Sync() }

// cpuTicks reads the host-wide steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor ran someone else while this machine had
// work: it slows every host-time metric without any change to the code.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
