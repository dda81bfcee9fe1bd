package main

import (
	"fmt"
	"syscall"
)

var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
