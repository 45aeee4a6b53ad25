package service

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adassure/internal/mutate"
)

// canonicalKey decodes one request document of a keyed kind the way the
// endpoint does, canonicalizes it under the default 600 s cap and returns
// its key.
func canonicalKey(path, doc string) (string, error) {
	switch path {
	case "/v1/run":
		return decodeAndKey[Request](doc)
	case "/v1/mutate":
		return decodeAndKey[MutateRequest](doc)
	default:
		return decodeAndKey[SearchRequest](doc)
	}
}

func decodeAndKey[R decodable[R]](doc string) (string, error) {
	req, err := decodeDoc[R](doc)
	if err != nil {
		return "", err
	}
	canon, err := req.Canonicalize(600)
	if err != nil {
		return "", err
	}
	return canon.Key(), nil
}

// decodeDoc decodes a request document as decodeKeyed does: unknown
// fields are an error.
func decodeDoc[R any](doc string) (R, error) {
	var req R
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// TestKeyPins pins the content address of representative requests of all
// three keyed kinds. The keys name entries of the persistent store, so a
// change here orphans every stored result: a store written by an older
// build must keep hitting.
func TestKeyPins(t *testing.T) {
	for _, tc := range []struct {
		name, path, doc, key string
	}{
		{"run empty", "/v1/run", `{}`,
			"7d1eff962e74e4b8845834d51641c18c229cddd3fb51cfb6be76f2f57c6e4dcc"},
		{"run clean with decorative window", "/v1/run", `{"attack": "none", "attack_start": 5, "attack_end": 9}`,
			"7d1eff962e74e4b8845834d51641c18c229cddd3fb51cfb6be76f2f57c6e4dcc"},
		{"run explicit defaults", "/v1/run", `{"track": "urban-loop", "controller": "pure-pursuit", "attack": "none",
			"seed": 1, "duration": 70, "speed_limit": 6, "threshold_scale": 1, "localizer": "ekf"}`,
			"7d1eff962e74e4b8845834d51641c18c229cddd3fb51cfb6be76f2f57c6e4dcc"},
		{"run unsorted duplicate assertions", "/v1/run", `{"assertions": ["A3", "A1", "A3", "A12"]}`,
			"e778ecf4ce6a28ddf03ba0b49563206f501f8ee4249c17fa2e337b1eb1db5eeb"},
		{"run attacked default window", "/v1/run", `{"attack": "gnss-drift-spoof", "seed": 3}`,
			"e5c08a89b2838474c6f8ba22d1b7147c5fff77f98c01a7190ed3696932f13c02"},
		{"run guarded bundles", "/v1/run", `{"attack": "gnss-step-spoof", "attack_start": 10, "attack_end": 30,
			"guarded": true, "bundles": true, "localizer": "complementary", "track": "hairpin", "controller": "stanley"}`,
			"679f1417bfd297d111c96b9264b719c6fa1d162b992c8568ec73fd4517eac8ae"},
		{"mutate empty", "/v1/mutate", `{}`,
			"765303fc86bc47ac85e126745b839d8dad35427dcefb93be650c69e714e3d625"},
		{"mutate explicit defaults", "/v1/mutate", `{"controller": "pure-pursuit", "tracks": ["urban-loop", "hairpin"],
			"seed": 1, "duration": 60}`,
			"765303fc86bc47ac85e126745b839d8dad35427dcefb93be650c69e714e3d625"},
		{"mutate small grid", "/v1/mutate", `{"tracks": ["urban-loop"], "duration": 25,
			"mutants": [{"op": "ctrl-gain-scale"}, {"op": "sense-gnss-dropout", "param": 5}]}`,
			"1871928e21f3012b35bc8793004613321d18f4307d56a103f84a3e0b629cd38e"},
		{"search empty", "/v1/search", `{}`,
			"4216d4b9e238ff62ff1d914b52d6fd6c5cf8256f7a69d8309bcf6722314579d4"},
		{"search explicit defaults", "/v1/search", `{"controller": "pure-pursuit", "tracks": ["urban-loop", "hairpin"],
			"mode": "descent", "seed": 1, "budget": 16, "duration": 60}`,
			"4216d4b9e238ff62ff1d914b52d6fd6c5cf8256f7a69d8309bcf6722314579d4"},
		{"search cem", "/v1/search", `{"mode": "cem", "tracks": ["urban-loop"],
			"channels": [{"op": "sense-gnss-latency"}], "assertions": ["A5", "A1"]}`,
			"54d3228af3807a511730f03ddbee03b77eb90f5f7740beff9b635843604e2e68"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key, err := canonicalKey(tc.path, tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			if key != tc.key {
				t.Errorf("key = %s, want %s", key, tc.key)
			}
		})
	}
}

// FuzzKeyedRequest checks the canonical form of all three keyed kinds over
// arbitrary JSON documents: an accepted request canonicalizes to a fixed
// point with the same key, and so does its canonical JSON sent again. For
// /v1/run it also checks that the service accepts exactly what
// adassure.Scenario.Canonicalize accepts, except for the bundle fields
// the service adds.
func FuzzKeyedRequest(f *testing.F) {
	for _, k := range keyedKinds {
		kind := uint8(slices.IndexFunc(fuzzPaths, func(p string) bool { return p == k.path }))
		for _, doc := range append([]string{k.body, k.explicit, k.slow}, k.bad...) {
			f.Add(kind, doc)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, doc string) {
		switch fuzzPaths[int(kind)%len(fuzzPaths)] {
		case "/v1/run":
			if req, err := decodeDoc[Request](doc); err == nil {
				checkFixedPoint(t, req)
				checkRunAgreement(t, req)
			}
		case "/v1/mutate":
			if req, err := decodeDoc[MutateRequest](doc); err == nil {
				checkFixedPoint(t, req)
			}
		default:
			if req, err := decodeDoc[SearchRequest](doc); err == nil {
				checkFixedPoint(t, req)
			}
		}
	})
}

var fuzzPaths = []string{"/v1/run", "/v1/mutate", "/v1/search"}

func checkFixedPoint[R decodable[R]](t *testing.T, req R) {
	t.Helper()
	canon, err := req.Canonicalize(600)
	if err != nil {
		return
	}
	again, err := canon.Canonicalize(600)
	if err != nil {
		t.Fatalf("canonical %+v rejected: %v", canon, err)
	}
	if !reflect.DeepEqual(again, canon) || again.Key() != canon.Key() {
		t.Fatalf("not idempotent: %+v -> %+v", canon, again)
	}
	b, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	key, err := decodeAndKey[R](string(b))
	if err != nil || key != canon.Key() {
		t.Fatalf("canonical document %s keys to %s (%v), want %s", b, key, err, canon.Key())
	}
}

func checkRunAgreement(t *testing.T, req Request) {
	t.Helper()
	scn, scnErr := req.Scenario().Canonicalize()
	canon, err := req.Canonicalize(0)
	badBundles := req.Bundles && req.BundleHalfWindow < 0
	if (err == nil) != (scnErr == nil && !badBundles) {
		t.Fatalf("service err %v, scenario err %v, bundle half-window %v", err, scnErr, req.BundleHalfWindow)
	}
	if err == nil && !reflect.DeepEqual(canon.Scenario(), scn) {
		t.Fatalf("service canonical %+v, scenario canonical %+v", canon.Scenario(), scn)
	}
}

// TestCatalogNamesAreAccepted: every name GET /v1/catalog lists is one
// the canonicalizers accept, since both read the same registries.
func TestCatalogNamesAreAccepted(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	body, err := c.getJSON(context.Background(), "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string][]string
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	for field, names := range cat {
		if len(names) == 0 {
			t.Errorf("catalog lists no %s", field)
		}
		for _, name := range names {
			var err error
			switch field {
			case "tracks":
				_, err = Request{Track: name}.Canonicalize(0)
				if err == nil {
					_, err = MutateRequest{Tracks: []string{name}}.Canonicalize(0)
				}
			case "controllers":
				_, err = Request{Controller: name}.Canonicalize(0)
				if err == nil {
					_, err = SearchRequest{Controller: name, Tracks: []string{"urban-loop"}, Budget: 1}.Canonicalize(0)
				}
			case "attacks":
				_, err = Request{Attack: name}.Canonicalize(0)
			case "localizers":
				_, err = Request{Localizer: name}.Canonicalize(0)
			case "assertions":
				_, err = Request{Assertions: []string{name}}.Canonicalize(0)
			case "mutants":
				_, err = MutateRequest{Mutants: []mutate.Spec{{Op: name}}}.Canonicalize(0)
			default:
				t.Errorf("unexpected catalog field %q", field)
			}
			if err != nil {
				t.Errorf("%s %q listed but rejected: %v", field, name, err)
			}
		}
	}
}
