package pinpoints

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"elfie/internal/simpoint"
	"elfie/internal/workloads"
)

// regionDigests hashes every region Prepare built: the pinball's file set
// (sorted by name) and the ELFie bytes, one digest per region in merge
// order.
func regionDigests(t *testing.T, b *Benchmark) []string {
	t.Helper()
	out := make([]string, len(b.Regions))
	for i, reg := range b.Regions {
		files, err := reg.Pinball.FileSet()
		if err != nil {
			t.Fatalf("region %d file set: %v", i, err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			binary.Write(h, binary.LittleEndian, uint64(len(name)))
			h.Write([]byte(name))
			binary.Write(h, binary.LittleEndian, uint64(len(files[name])))
			h.Write(files[name])
		}
		elfie, err := reg.ELFie.Write()
		if err != nil {
			t.Fatalf("region %d elfie: %v", i, err)
		}
		h.Write(elfie)
		out[i] = fmt.Sprintf("s%d:%x", reg.SliceUsed, h.Sum(nil)[:8])
	}
	return out
}

// TestPrepareGoldenDigests pins the bytes of every region pinball and ELFie
// Prepare builds, on the phased single-threaded recipe and on the
// 8-thread cam4 stand-in, whose later regions start mid-run. However the
// log stage reaches a region's start, its artifacts must not change.
func TestPrepareGoldenDigests(t *testing.T) {
	cam4, ok := workloads.ByName("627.cam4_s.1")
	if !ok {
		t.Fatal("627.cam4_s.1 recipe missing")
	}
	mtCfg := smallConfig()
	mtCfg.MaxK = 4
	cases := []struct {
		name   string
		recipe workloads.Recipe
		cfg    Config
		want   []string
	}{
		{"phased", smallRecipe(), smallConfig(), []string{
			"s8:071b80c446a529e7", "s6:9af870e56b0ff5fd", "s31:7f8c2cecb2206c2f",
			"s38:70e96ba766095474", "s3:3cc4ae7d2779f495",
		}},
		{"cam4-8threads", cam4, mtCfg, []string{
			"s7:e342254577e01f81", "s0:12eaf2e01914b768", "s8:9e7dd3214da0c104",
			"s2:31a072b291d9f3dd",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Prepare(tc.recipe, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := regionDigests(t, b)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("region digests\n got  %q\n want %q", got, tc.want)
			}
		})
	}
}

// TestAlternateLogsSameFromSnapshot: an alternate region built during
// validation (buildRegion) is byte-identical whether its log job
// fast-forwards from the forward pass's nearest earlier snapshot or from a
// fresh session.
func TestAlternateLogsSameFromSnapshot(t *testing.T) {
	b, err := Prepare(smallRecipe(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	primary := map[uint64]bool{}
	for _, reg := range b.Regions {
		primary[reg.StartIcount] = true
	}
	// An alternate whose start is no primary's: it fast-forwards from the
	// snapshot before it.
	var sel simpoint.Region
	slice := -1
	for _, s := range b.Selection.Regions {
		for _, alt := range s.Alternates {
			if start, _ := b.regionWindow(alt); start > 0 && !primary[start] && b.pass.snapshot(start) != nil {
				sel, slice = s, alt
				break
			}
		}
		if slice >= 0 {
			break
		}
	}
	if slice < 0 {
		t.Fatal("no alternate starts after a snapshot")
	}
	fromSnap := b.buildRegion(sel, slice)
	b.pass = nil
	fresh := b.buildRegion(sel, slice)
	if fromSnap == nil || fresh == nil {
		t.Fatalf("alternate slice %d did not build (snapshot %v, fresh %v)", slice, fromSnap != nil, fresh != nil)
	}
	tmp := &Benchmark{Regions: []*Region{fromSnap, fresh}}
	if d := regionDigests(t, tmp); d[0] != d[1] {
		t.Errorf("alternate slice %d: from snapshot %s, fresh %s", slice, d[0], d[1])
	}
}
