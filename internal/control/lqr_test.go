package control

import (
	"math"
	"sync"
	"testing"

	"adassure/internal/vehicle"
)

// lqrGainBits pins solveRiccati's gain row, as math.Float64bits, at every
// 0.5 m/s bucket centre from 0.25 to 30.25 m/s for both vehicle parameter
// sets. The table was generated from the heap-backed matrix formulation
// the fixed-array solve replaced; any reassociation of the recursion moves
// these bits.
var lqrGainBits = map[string][61][4]uint64{
	"shuttle": {
		{0x3f865aa364a2738f, 0x3f41e21c5081f60c, 0x3fa1b6185f2a20de, 0x3f5c39f06af5cb0d},
		{0x3fb85a8a7a469227, 0x3f737ba1fb6ba820, 0x3fcb51888c7bd1dd, 0x3f857d4f0079098a},
		{0x3fcd9861625f7c1f, 0x3f87ad1ab5193019, 0x3fe4331158a46a93, 0x3f9f944c84f7e104},
		{0x3fd5b2ce5ebe5a40, 0x3f915bd84bcb7b67, 0x3ff204e6536ac25b, 0x3fac1238a88d1cc5},
		{0x3fd83d4962373944, 0x3f93643ab4f8fa9d, 0x3ff7118424b25c3b, 0x3fb1e8cb4377af89},
		{0x3fd86fbff98c09d4, 0x3f938c99947007dd, 0x3ff93089a63ee850, 0x3fb37acc0a4b4661},
		{0x3fd82d5be43e19c5, 0x3f93577cb698149e, 0x3ffa05b1edc6acdf, 0x3fb40833ad33f643},
		{0x3fd7fbe7515e2da0, 0x3f932fec41182480, 0x3ffa824cdca7257f, 0x3fb44ecb37122f7c},
		{0x3fd7d5b6c77e1c54, 0x3f93115f05fe7d10, 0x3ffaefb3eff1fec6, 0x3fb4893d4d3ce060},
		{0x3fd7a732d43f6ae0, 0x3f92ec28a9cc5580, 0x3ffb58d2488a45fa, 0x3fb4c10903267c81},
		{0x3fd76a1c8c1f1c0b, 0x3f92bb4a09b27cd6, 0x3ffbbc9368c8b008, 0x3fb4f5c511973ca2},
		{0x3fd720c3c7245073, 0x3f92809c9f50405c, 0x3ffc1ac6a18096d7, 0x3fb52760728d1a73},
		{0x3fd6cf35da4e49e9, 0x3f923f5e483ea187, 0x3ffc747099257066, 0x3fb55699e9ac421a},
		{0x3fd678770f810782, 0x3f91f9f8d9340602, 0x3ffcca80949eff2a, 0x3fb5841c44920207},
		{0x3fd61e45678eb6f4, 0x3f91b1d11fa55f2a, 0x3ffd1d58ba88d463, 0x3fb5b029a18f46e3},
		{0x3fd5c190946d138d, 0x3f9167a6dd240fa4, 0x3ffd6ce820254be6, 0x3fb5daaf22b18b34},
		{0x3fd562e3592ea0cf, 0x3f911be914254d73, 0x3ffdb8e2c4bcc50e, 0x3fb6036e2db65e75},
		{0x3fd5029d880d1401, 0x3f90cee46cd74334, 0x3ffe00e9ed00a6bf, 0x3fb62a1a2818fa0c},
		{0x3fd4a10db9f9d63e, 0x3f9080d7c7fb11cb, 0x3ffe44a148dd5e70, 0x3fb64e6813f810b2},
		{0x3fd43e7b40d13374, 0x3f9031fc33da8f90, 0x3ffe83b8186c1a9c, 0x3fb6701556d17231},
		{0x3fd3db2991bc1b9b, 0x3f8fc50f4f935f5f, 0x3ffebdec66f427b9, 0x3fb68eea2410aedf},
		{0x3fd37759394ca405, 0x3f8f255b8ee1066f, 0x3ffef30ba9164470, 0x3fb6aab9fa11e51f},
		{0x3fd31347f0d0afbd, 0x3f8e853fe7b44c62, 0x3fff22f23cd642d6, 0x3fb6c3634bfa54e7},
		{0x3fd2af306ce6b134, 0x3f8de51a47d781ed, 0x3fff4d8a6d409114, 0x3fb6d8cecfb9d3b9},
		{0x3fd24b4a1dd81717, 0x3f8d454362f35825, 0x3fff72cb3f0fdeb0, 0x3fb6eaeea346109b},
		{0x3fd1e7c8f6b8ad8f, 0x3f8ca60e578de27f, 0x3fff92b726c47d14, 0x3fb6f9bd60d648d0},
		{0x3fd184dd4296958b, 0x3f8c07c86a8a88df, 0x3fffad5ab968d335, 0x3fb7053d2eb4633c},
		{0x3fd122b3897c1f66, 0x3f8b6ab8dbf9cbd7, 0x3fffc2cb625f8eee, 0x3fb70d76d231c7a1},
		{0x3fd0c17484b70630, 0x3f8acf20d45809e7, 0x3fffd3262505d1a4, 0x3fb71278cab4d06f},
		{0x3fd0614520e6c633, 0x3f8a353b67d7a385, 0x3fffde8e6ec73de3, 0x3fb71456783fea09},
		{0x3fd002468bfb3981, 0x3f899d3dacc528cf, 0x3fffe52cfcbf674c, 0x3fb713274fbb218c},
		{0x3fcf492c9a74b98f, 0x3f890756e1f6fad9, 0x3fffe72ed6e00886, 0x3fb70f061e74ea20},
		{0x3fce909ccae6e573, 0x3f8873b0a2525129, 0x3fffe4c461ad6970, 0x3fb708105da7f81c},
		{0x3fcddb0aeb4b59a3, 0x3f87e26f22a2ae1c, 0x3fffde2086eb6ea9, 0x3fb6fe65964f50b4},
		{0x3fcd289dd5113298, 0x3f8753b17740f547, 0x3fffd377f50571e8, 0x3fb6f226d528f3e2},
		{0x3fcc7976572080bf, 0x3f86c791df4d33cc, 0x3fffc500748b6978, 0x3fb6e3762e7690a1},
		{0x3fcbcdaf9866a40a, 0x3f863e2613855008, 0x3fffb2f052cb47c3, 0x3fb6d27650cf04af},
		{0x3fcb255f7cca928f, 0x3f85b77f97087540, 0x3fff9d7de051a28e, 0x3fb6bf4a2627eab4},
		{0x3fca80970abfa2b1, 0x3f8533ac08994ef4, 0x3fff84df01f4c448, 0x3fb6aa1482215e54},
		{0x3fc9df62cffa832b, 0x3f84b2b5732ecf56, 0x3fff6948d2f5ce17, 0x3fb692f7dc8cddae},
		{0x3fc941cb44127d77, 0x3f8434a29cdb9793, 0x3fff4aef56b96642, 0x3fb67a1617208706},
		{0x3fc8a7d5281878af, 0x3f83b9775346c6f3, 0x3fff2a053899d096, 0x3fb65f904d47df78},
		{0x3fc81181e26557e1, 0x3f834134b51ddfe8, 0x3fff06bb985cd889, 0x3fb64386ad091be4},
		{0x3fc77ecfd612604c, 0x3f82cbd9780eb370, 0x3ffee141e1e69543, 0x3fb626185800116b},
		{0x3fc6efbab5b8a12b, 0x3f8259622afa1a89, 0x3ffeb9c5aed50e70, 0x3fb607634b7d43dc},
		{0x3fc6643bd1385155, 0x3f81e9c9742d0dde, 0x3ffe9072b0c6b20c, 0x3fb5e7844ee6f344},
		{0x3fc5dc4a5e674031, 0x3f817d084b85ccf4, 0x3ffe6572a3253648, 0x3fb5c696e78aba0b},
		{0x3fc557dbbc9e5e6d, 0x3f811316307eb1f1, 0x3ffe38ed4366fd8b, 0x3fb5a4b5511f9606},
		{0x3fc4d6e3b33298fc, 0x3f80abe95c287a63, 0x3ffe0b084ed1a187, 0x3fb581f87a4991e0},
		{0x3fc45954aaf553a3, 0x3f804776ef2aa94f, 0x3ffddbe784e05e7c, 0x3fb55e7804814bcc},
		{0x3fc3df1fe2e54ac5, 0x3f7fcb6637d5446f, 0x3ffdabacad8845b7, 0x3fb53a4a46d1fd60},
		{0x3fc36835a0420601, 0x3f7f0d229a033ccf, 0x3ffd7a77a2aa1c0c, 0x3fb5158452f03a25},
		{0x3fc2f4855a3ac4df, 0x3f7e5408905e07cc, 0x3ffd48665c16629f, 0x3fb4f039fc3a31dc},
		{0x3fc283fde17658ae, 0x3f7d9ffc9bf08de4, 0x3ffd1594fd9b22b6, 0x3fb4ca7de03fccb6},
		{0x3fc2168d83b412af, 0x3f7cf0e26c535118, 0x3ffce21de6a49fa0, 0x3fb4a461707d6765},
		{0x3fc1ac222bc71fd6, 0x3f7c469d12d832f0, 0x3ffcae19c30a0db8, 0x3fb47df4fcff4b5c},
		{0x3fc144a97e2da95a, 0x3f7ba10f30490ef7, 0x3ffc799f9cade14a, 0x3fb45747bfae411c},
		{0x3fc0e010f28416cc, 0x3f7b001b1da0247a, 0x3ffc44c4eda642e4, 0x3fb43067e80ed23c},
		{0x3fc07e45ea131809, 0x3f7a63a3101e8cdc, 0x3ffc0f9db2adcd1e, 0x3fb40962a7450c6c},
		{0x3fc01f35c3b4d501, 0x3f79cb89392154cf, 0x3ffbda3c7da6fec7, 0x3fb3e2443c35e5bd},
		{0x3fbf859bda95e43b, 0x3f7937afe2118363, 0x3ffba4b28805de6e, 0x3fb3bb17ffa5d6ec},
	},
	"sedan": {
		{0x3f872daba4c4953d, 0x3f428aefb703aa97, 0x3fa25d1733c58d69, 0x3f5d4413a01742ca},
		{0x3fb93146f8403a5d, 0x3f74276bf9ccfb7e, 0x3fcc3f2b183cfb3e, 0x3f8638320d1b577b},
		{0x3fce59f3675193f1, 0x3f8847f5ec414328, 0x3fe4ae536141175d, 0x3fa02a560fb640d7},
		{0x3fd5f3ff7bf0195d, 0x3f918fff9659ade4, 0x3ff227495b14ff89, 0x3fac46f56327460d},
		{0x3fd848b9af42b155, 0x3f936d6159022778, 0x3ff6edbedfa1de20, 0x3fb1cbeb8f9a3bcb},
		{0x3fd866b8591509e8, 0x3f938560474407ed, 0x3ff8de20b0b2d609, 0x3fb3391e0ae8baf5},
		{0x3fd823d95435e593, 0x3f934fe1102b1e10, 0x3ff9a230986ed8dc, 0x3fb3b8e82216ed11},
		{0x3fd7f3a93d22f458, 0x3f93295430e8c37a, 0x3ffa1a8eb3ac6411, 0x3fb3fc1bd0a566e4},
		{0x3fd7cb4e2680aebe, 0x3f93090b52008bcb, 0x3ffa86637911ea72, 0x3fb4356e2d4cb422},
		{0x3fd7985d8132ee8c, 0x3f92e04acdc25870, 0x3ffaeda31b47863b, 0x3fb46bfe0b34e156},
		{0x3fd756724f680ea2, 0x3f92ab8ea5ecd882, 0x3ffb4f2c2bfeeb28, 0x3fb49f479381fdeb},
		{0x3fd708b2b4650ba8, 0x3f926d5bc3840953, 0x3ffbab27ccd2fe26, 0x3fb4cf76d834e774},
		{0x3fd6b33ef115e309, 0x3f9228ff2744b5a1, 0x3ffc02b1b58fd6c6, 0x3fb4fd5a3bc81a6e},
		{0x3fd658efc12a2c1f, 0x3f91e0bfcdbb567f, 0x3ffc56a1d8658d71, 0x3fb5298ae48f090f},
		{0x3fd5fb5c387e7f03, 0x3f9195e360653269, 0x3ffca73c74fcecc0, 0x3fb554348f412b3c},
		{0x3fd59b5fde4557a0, 0x3f9149197e9ddfb3, 0x3ffcf45cddaab001, 0x3fb57d356c4474bc},
		{0x3fd5397f09543135, 0x3f90facc07768dc4, 0x3ffd3dae55b26020, 0x3fb5a44806fcdfe2},
		{0x3fd4d61a1937aea6, 0x3f90ab48142c8bb8, 0x3ffd82d0c596cd9f, 0x3fb5c91e5576f86b},
		{0x3fd47182fbef7cd4, 0x3f905acf2ff2ca43, 0x3ffdc36aa9ca22d2, 0x3fb5eb6ef97cd612},
		{0x3fd40c051d324b1e, 0x3f90099db0f508e5, 0x3ffdff304da98057, 0x3fb60afa9fc35664},
		{0x3fd3a5e7f622e060, 0x3f8f6fd989d16700, 0x3ffe35e604c31ade, 0x3fb6278dadc7de7f},
		{0x3fd33f6fa978c362, 0x3f8ecbe5dbf46bd0, 0x3ffe67603e64b5f3, 0x3fb6410059efbf1e},
		{0x3fd2d8dcf730c5e2, 0x3f8e27c7f1e7a304, 0x3ffe9382b181f8dc, 0x3fb657361898e407},
		{0x3fd2726d00d24e37, 0x3f8d83e19aea16bf, 0x3ffeba3f257fd964, 0x3fb66a1cbfd2b03e},
		{0x3fd20c590a7d2967, 0x3f8ce08e772ea8a5, 0x3ffedb94117f887b, 0x3fb679ab8c12daac},
		{0x3fd1a6d648874787, 0x3f8c3e23a73ed8d8, 0x3ffef78b2e02318d, 0x3fb685e21a478bf6},
		{0x3fd14215be76eb60, 0x3f8b9cef9724abcd, 0x3fff0e380841196b, 0x3fb68ec7627ca482},
		{0x3fd0de442fbb0a93, 0x3f8afd39e5f810ec, 0x3fff1fb6a0ae37a2, 0x3fb69468b9fb4174},
		{0x3fd07b8a20b92a0b, 0x3f8a5f43678ea9ac, 0x3fff2c2a1acdfb00, 0x3fb696d8e16badb1},
		{0x3fd01a0be619c99d, 0x3f89c3463cf60f62, 0x3fff33bb8281263d, 0x3fb6962f21fbd5f9},
		{0x3fcf73d380178cbc, 0x3f8929760012d6fd, 0x3fff3698a952c617, 0x3fb692867b739f95},
		{0x3fceb67ffe802417, 0x3f8891fffecce9ac, 0x3fff34f31d3651c6, 0x3fb68bfce449af38},
		{0x3fcdfc4e6306bfd6, 0x3f87fd0b826bccac, 0x3fff2eff393a94e1, 0x3fb682b29c231deb},
		{0x3fcd4568a8191a81, 0x3f876aba20141534, 0x3fff24f35001707d, 0x3fb676c990a572f9},
		{0x3fcc91f2139a5e85, 0x3f86db280faeb204, 0x3fff1706ef423600, 0x3fb66864d41dbc02},
		{0x3fcbe207a8934550, 0x3f864e6c86dc3774, 0x3fff05723b35bf6e, 0x3fb657a82534f7cc},
		{0x3fcb35c09b695f87, 0x3f85c49a15ede606, 0x3ffef06d6082ceaf, 0x3fb644b786b51c50},
		{0x3fca8d2ec67d6e08, 0x3f853dbf053124d4, 0x3ffed8301b1198fa, 0x3fb62fb6e63f1e78},
		{0x3fc9e85f1d70c9b6, 0x3f84b9e5b12707c5, 0x3ffebcf150122b00, 0x3fb618c9d0be3d11},
		{0x3fc9475a1da91b7c, 0x3f843914e4874930, 0x3ffe9ee6b976770a, 0x3fb60013335c7900},
		{0x3fc8aa243af790bd, 0x3f83bb502f2c73cb, 0x3ffe7e44a122d80b, 0x3fb5e5b527bd0c94},
		{0x3fc810be478d3592, 0x3f834098393dc475, 0x3ffe5b3daa238f4c, 0x3fb5c9d0ca49a329},
		{0x3fc77b25d6a16fcc, 0x3f82c8eb121abfd7, 0x3ffe3602a648aa17, 0x3fb5ac86196c2dcc},
		{0x3fc6e9559962389d, 0x3f8254447ab4fa17, 0x3ffe0ec276a1a3cc, 0x3fb58df3dc9fe90b},
		{0x3fc65b45b5f0480d, 0x3f81e29e2b26a00b, 0x3ffde5a9f56d3b68, 0x3fb56e37925736df},
		{0x3fc5d0ec184ca8eb, 0x3f8173f013708723, 0x3ffdbae3e82ee299, 0x3fb54d6d63c84edd},
		{0x3fc54a3cbd39e050, 0x3f81083097618040, 0x3ffd8e98f8b8cb1e, 0x3fb52bb01dc7aaa8},
		{0x3fc4c729f729bc01, 0x3f809f54c5bafcce, 0x3ffd60efb417037a, 0x3fb509192debdadc},
		{0x3fc447a4ad62b99e, 0x3f8039508ab5614b, 0x3ffd320c8e64adc1, 0x3fb4e5c0a34aa70f},
		{0x3fc3cb9c95957e6d, 0x3f7fac2dbc2263e2, 0x3ffd0211eaafa78e, 0x3fb4c1bd3232a9ec},
		{0x3fc353006824ad9b, 0x3f7eeb33d9d448f8, 0x3ffcd1202628a9a9, 0x3fb49d243a56c793},
		{0x3fc2ddbe0f682879, 0x3f7e2f967f0d0d8f, 0x3ffc9f55a5f5c6cb, 0x3fb47809cef1c558},
		{0x3fc26bc2d238f083, 0x3f7d7937b6c180d2, 0x3ffc6ccee7132610, 0x3fb45280c077d87c},
		{0x3fc1fcfb7a14f80b, 0x3f7cc7f8c354c012, 0x3ffc39a68fc1db1c, 0x3fb42c9aa77a333c},
		{0x3fc19154752a932c, 0x3f7c1bba5510eb7a, 0x3ffc05f58216d63b, 0x3fb40667f06d6dbc},
		{0x3fc128b9f49a4a87, 0x3f7b745cba90773f, 0x3ffbd1d2ef4c2458, 0x3fb3dff7e80f2f89},
		{0x3fc0c318073bda56, 0x3f7ad1c00b92f6f0, 0x3ffb9d546b852fe5, 0x3fb3b958c831c684},
		{0x3fc0605ab1306ad3, 0x3f7a33c44eb3de1f, 0x3ffb688e01c38717, 0x3fb39297c4bd7651},
		{0x3fc0006e0088c1fc, 0x3f799a499a746994, 0x3ffb339247d4f446, 0x3fb36bc118bf5292},
		{0x3fbf467c3e84ffa2, 0x3f7905303203ffb5, 0x3ffafe72720d97a4, 0x3fb344e01364808b},
		{0x3fbe916ec5b713b2, 0x3f7874589e2c0fc2, 0x3ffac93e66a94b1a, 0x3fb31dff24c6de97},
	},
}

func TestLQRGainBits(t *testing.T) {
	for name, p := range map[string]vehicle.Params{"shuttle": vehicle.ShuttleParams(), "sedan": vehicle.SedanParams()} {
		c := NewLQRMPC(p)
		for b, want := range lqrGainBits[name] {
			v := float64(b)*0.5 + 0.25
			got := c.solveRiccati(v)
			for i := range got {
				if math.Float64bits(got[i]) != want[i] {
					t.Errorf("%s v=%.2f: K[%d] = %v, want %v", name, v, i, got[i], math.Float64frombits(want[i]))
				}
			}
		}
	}
}

// TestRiccatiAllocs pins the gain solve to the stack: a speed bucket the
// controller has not seen costs no heap allocation beyond the cache entry.
func TestRiccatiAllocs(t *testing.T) {
	c := NewLQRMPC(vehicle.ShuttleParams())
	if n := testing.AllocsPerRun(20, func() { c.solveRiccati(5.25) }); n != 0 {
		t.Errorf("solveRiccati allocates %.1f objects, want 0", n)
	}
}

// TestSharedGains checks the process-wide gain table from concurrent
// controllers, as the runner's workers use it: every gain a controller
// takes from the shared table equals a fresh solveRiccati of its bucket
// bit for bit. Under -race it also checks the table's synchronisation.
func TestSharedGains(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range []vehicle.Params{vehicle.ShuttleParams(), vehicle.SedanParams()} {
				c := NewLQRMPC(p)
				for b := 1; b <= 60; b++ {
					// Workers walk the buckets in opposite orders so they
					// race to fill the same entries.
					bucket := b
					if w%2 == 1 {
						bucket = 61 - b
					}
					got := c.gainFor(float64(bucket)*0.5 + 0.1)
					want := c.solveRiccati(float64(bucket)*0.5 + 0.25)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("worker %d bucket %d: K[%d] = %v, want %v", w, bucket, i, got[i], want[i])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
