package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
)

// goldenCSR pins the frozen CSR of every preset, keyed "preset/scale/seed".
// Each value is csrDigest of the generated graph. A change to graph
// construction must leave every pin as it is: Holme–Kim draws randomness
// based on which edges the attaching node already has, and every record
// digest and sketch byte downstream depends on the CSR's row order.
var goldenCSR = map[string]string{
	"dblp/0.01/0":     "d0a2560be4b1dd32bed150e5b2c11f27d7ca53614aa9038ef5065f25b2d7517d",
	"dblp/0.01/1":     "ad191ce6b668fb8616843afcf9e9ee644dad98294f8529c824678da3d8ed361f",
	"dblp/0.01/2":     "bdb5de2664ae0f9c0a977664d9133ea62c86c891c6103d0b7357ab0cf7aef57a",
	"dblp/0.05/0":     "d938f5f91f6f9849d25a417433faa29774297b97c8a3e6641e1a15d962244b45",
	"dblp/0.05/1":     "3e8a0bacf965320dc2dca2c9990a1296196be201fd8e8dfad43a08fec4c25458",
	"dblp/0.05/2":     "2da09fdadb809f374fccf627b84c22ce1fa8aad8434f9c367239ff310b0a8079",
	"facebook/0.01/0": "b4f058174fffa955d6363554aa26df13893699d6a65759a040940fd058783074",
	"facebook/0.01/1": "07f33c26f1109b62ffb3ec9a4ff96d7dd73cfe163272a6976818500cdfbdf1d3",
	"facebook/0.01/2": "b0cef2d8c8d995320773d5a8c5bdc4976e0f976facd21d1bf04fb4a69b20f6e3",
	"facebook/0.05/0": "60c8a683058d3409024a15f98586479638635fa6e9d546aea003303b2a8c0d0e",
	"facebook/0.05/1": "bdbbfb3c3c2800089c7019d0712ef074869505e60579d92d126257a75d80d483",
	"facebook/0.05/2": "d244ea01f76013ef13ccbca8542828671079923a2cc14d173f0d856124b6237c",
	"slashdot/0.01/0": "e457bc5ca79a62377a17fc5a1a476d87cefe6e865a5b63a6984036a388992953",
	"slashdot/0.01/1": "61fab65f2fbf63afe9fa23729c8b758769366da3664681205c1df8c5f3a642f5",
	"slashdot/0.01/2": "5138d5a620e5c1fc628b60f09953dbaa0a8d00ab09758e09845051699576a780",
	"slashdot/0.05/0": "00bc5954df5837dcd0ff227fca2d7b2529f0ee0fb5ca3c15f3ea3e8e9569cf6b",
	"slashdot/0.05/1": "254dc41319cf375a217e9656c909579a0133a1c7c5cbcfad847fea3e5726e66d",
	"slashdot/0.05/2": "85e26f5e1d5adbf9ba5e04e3500865d7d962a9b24ba6af482194a7c31f09cee4",
	"twitter/0.01/0":  "7f8c0a5fa47c38232ebf396e89d06fc66ade29b8c5c2f1d5ed8f5c97549d2505",
	"twitter/0.01/1":  "42aedc3ca7cebc1f2d86fd5b47880fd6a709df339f1c12ef180aefc3e83771b5",
	"twitter/0.01/2":  "b2b5148b910ee15e1a505f1c9ad37131ba10e86d9024a4da0651788581a0b66c",
	"twitter/0.05/0":  "0b9eb5030998ad585ad44b486102d8a9c0aea8f3c3b978e295e2861fd91dc37b",
	"twitter/0.05/1":  "cbeff261f52eab16e43237c0ccd34cd4754cfcbf7a5b095a1c589cc8362109de",
	"twitter/0.05/2":  "5bcf874711fd236e79e00818141afc061d4a38212bdca805ca490e50b5f08900",
}

// csrDigest is SHA-256 over M, then each node's degree and sorted row, all
// little-endian. Two graphs share a digest exactly when their CSRs match.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.M()))
	h.Write(buf[:])
	for u := 0; u < g.N(); u++ {
		binary.LittleEndian.PutUint32(buf[:4], uint32(g.Degree(u)))
		h.Write(buf[:4])
		for _, v := range g.Neighbors(u) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCSR regenerates every pinned network and compares its CSR
// digest with the pin.
func TestGoldenCSR(t *testing.T) {
	for _, name := range PresetNames() {
		for _, scale := range []float64{0.01, 0.05} {
			p, err := PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			generator, err := p.Generator(scale)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 3; i++ {
				key := fmt.Sprintf("%s/%v/%d", name, scale, i)
				g, err := generator.Generate(seed(i))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := csrDigest(g), goldenCSR[key]; got != want {
					t.Errorf("%s: CSR digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
