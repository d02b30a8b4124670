package dpx10_test

import (
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

// TestInferredCodecMatchesExplicit runs SW on two places with the vertex
// cache on, so finished values are pushed across places, once with no codec
// and once with Int32Codec. A run that names no codec picks the fixed-width
// one for int32, so both runs send the same bytes and compute the same
// table; with gob as the fallback the codec-less run sends more.
func TestInferredCodecMatchesExplicit(t *testing.T) {
	app := apps.NewSW(workload.Sequence(96, workload.DNA, 5), workload.Sequence(96, workload.DNA, 6))
	run := func(opts ...dpx10.Option[int32]) *dpx10.Dag[int32] {
		t.Helper()
		d, err := dpx10.Run[int32](app, app.Pattern(), append([]dpx10.Option[int32]{
			dpx10.Places(2), dpx10.Threads(1), dpx10.CacheSize(256),
			dpx10.WithHeartbeat(-1, 0)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	inferred := run()
	explicit := run(dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if s := inferred.Stats(); s.ValuesPushed == 0 {
		t.Fatalf("no value crossed the wire: %+v", s)
	}
	if a, b := inferred.Stats().BytesSent, explicit.Stats().BytesSent; a != b {
		t.Fatalf("BytesSent: %d with no codec, %d with Int32Codec", a, b)
	}
	h, w := app.Pattern().Bounds()
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if a, b := inferred.Result(i, j), explicit.Result(i, j); a != b {
				t.Fatalf("(%d,%d) = %d with no codec, %d with Int32Codec", i, j, a, b)
			}
		}
	}
}

// TestSnapshotBytesUseValueWidth checks the snapshot baseline's byte count:
// each saved value costs the run's encoded width, 4 bytes for int32.
func TestSnapshotBytesUseValueWidth(t *testing.T) {
	app := apps.NewSW(workload.Sequence(40, workload.DNA, 7), workload.Sequence(40, workload.DNA, 8))
	store := dpx10.NewSnapshotStore[int32]()
	d, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(3),
		dpx10.WithSnapshotRecovery[int32](store, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(d); err != nil {
		t.Fatal(err)
	}
	snaps, bytes := store.Stats()
	if snaps == 0 || store.Len() == 0 {
		t.Fatalf("no snapshot saved: %d snapshots, %d values", snaps, store.Len())
	}
	if want := int64(4 * store.Len()); bytes != want {
		t.Fatalf("snapshot bytes = %d for %d int32 values, want %d", bytes, store.Len(), want)
	}
}
