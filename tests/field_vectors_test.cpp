// Cross-implementation validation of the field arithmetic: random (a, b)
// pairs with a·b, a+b, and a⁻¹ computed independently by CPython's
// arbitrary-precision integers, for both P-256 moduli. The coordinate-field
// vectors run against the generic Mont and the dedicated fp256 alike.
#include <gtest/gtest.h>

#include <string_view>

#include "src/crypto/fp256.h"
#include "src/crypto/mont.h"
#include "src/util/hex.h"

namespace atom {
namespace {

struct FieldVector {
  std::string_view field;  // "P" (coordinate field) or "N" (scalar field)
  std::string_view a, b, prod, sum, a_inv;
};

// Generated with python3 (seed 1234); see the commit that added this file.
const FieldVector kVectors[] = {
    {"P", "f149f542e935b87017346b4501eaf6141de9ea6670d3da1fc735df5ef7697fba",
     "19322fed157cf9c6b16e2d5cabeb959208f0ebd4950cddd9ce97b5bdf073eed2",
     "a7c1b470d7611a975255edbe0dd93ee8e3cfb38e43893d43cb0b40a55c288e43",
     "0a7c2530feb2b235c8a298a1add68ba626dad63a05e0b7f995cd951ce7dd6e8d",
     "2a14875c1d3d541c9dafa38f438451f99a36f9e35ecb142265023c66a66faf03"},
    {"P", "040e1e30c9ed0248fc9799a707e36d6004762a223c9f90c95ac96628c4381837",
     "175e99412607ad5f76ab14759da618fd7bf78a4d9f8f5ffba5f80a0a58994954",
     "a159f5525698e844170f6fef1059c23cc5dcabd684d2c4c7ecd25d2f770e241d",
     "1b6cb771eff4afa87342ae1ca589865d806db46fdc2ef0c500c170331cd1618b",
     "454c01a0e279e2313983ca5c7caa8aa4b584f8cf4aecffc499cc21280a793d3f"},
    {"P", "e16682717c9bbfae80ca17b703be0e66d868c2cf1d4a2b12b6a20bb02edf0744",
     "118dc10e774520d7e98d7c358a84c15caad14268108727563ff4bb8cf703ca00",
     "c3451d0d14ff58f62eee1c194f6d856aa9672ed6b0339e494fb91ba491d6aaed",
     "f2f4437ff3e0e0866a5793ec8e42cfc3833a05372dd15268f696c73d25e2d144",
     "61d19a7878e02e94d033fb64eb310098d3bf18bf5711f2e0cee4d845a0a14c55"},
    {"N", "d30aad4b45038e220bc4621b9439852083d9fca716c40a33acd51e6699f9823d",
     "443658625af0f3e0d9a54a0d7b25331f4d6bfd8fa506bfc51025dbe58e725d58",
     "b4bef11a766fffe3feed66e719606b799d4db26b43d15e356f549d418738921f",
     "174105ae9ff48201e569ac290f5eb840145eff8914b32b73c9412f892c08ba44",
     "b5a6d734c5510edcea048b8b111c9e9574dbfcabfd0f43d116c00f9ad51e522d"},
    {"N", "aa58695187b8a518e065e3eb74113cb033354fc7eefadf23a7cda6c23fc86ee7",
     "b5c36ec124ce01e15560eaba017ad051121213ca8212f7c6f1048aa604f0d0f3",
     "84e788e644f4843b9518fff058a224f6a09cac48b783812f71bdd092f0e47be4",
     "601bd813ac86a6f935c6cea5758c0d01886068e4c9f63865a51866a548561a89",
     "d2b5d725efc4176ac3136a108a6c7988cdbba52ae3eb7e15450d19088870aec8"},
    {"N", "7f1ff9fe966844aa138411eb0dde6d082ac7e1da6099d795a8486261790b2f7d",
     "58a295d4eff35b6106f1e77124ed49b137106d208ead31c81348486129fc1d9e",
     "2d8b876f82ece4161dc902888417772dc8f41949461d21b2285913e481c20605",
     "d7c28fd3865ba00b1a75f95c32cbb6b961d84efaef47095dbb90aac2a3074d1b",
     "f5cef0fd1b25ceb3a41afddc58a42ba6eb54b85c0d68d6c7b0dccaa225de4aed"},
};

U256 FromHexStr(std::string_view h) {
  auto bytes = HexDecode(h);
  EXPECT_TRUE(bytes.has_value() && bytes->size() == 32);
  return U256::FromBytesBe(BytesView(*bytes));
}

class FieldVectorTest : public ::testing::TestWithParam<FieldVector> {};

TEST_P(FieldVectorTest, MatchesPythonBigints) {
  const FieldVector& vec = GetParam();
  static const Mont field_p(P256Prime());
  const Mont& field = (vec.field == "P") ? field_p : FieldN();
  U256 a = FromHexStr(vec.a);
  U256 b = FromHexStr(vec.b);

  U256 ma = field.ToMont(a);
  U256 mb = field.ToMont(b);
  EXPECT_EQ(field.FromMont(field.Mul(ma, mb)), FromHexStr(vec.prod));
  EXPECT_EQ(field.Add(a, b), FromHexStr(vec.sum));
  EXPECT_EQ(field.FromMont(field.Inv(ma)), FromHexStr(vec.a_inv));
  // And the inverse property closes the loop.
  EXPECT_EQ(field.Mul(ma, field.ToMont(FromHexStr(vec.a_inv))), field.one());
}

TEST_P(FieldVectorTest, DedicatedFpMatchesPythonBigints) {
  const FieldVector& vec = GetParam();
  if (vec.field != "P") {
    GTEST_SKIP() << "scalar-field vector: fp256 is the coordinate field";
  }
  U256 a = FromHexStr(vec.a);
  U256 b = FromHexStr(vec.b);

  U256 ma = fp256::ToMont(a);
  U256 mb = fp256::ToMont(b);
  EXPECT_EQ(fp256::FromMont(fp256::Mul(ma, mb)), FromHexStr(vec.prod));
  EXPECT_EQ(fp256::Add(a, b), FromHexStr(vec.sum));
  EXPECT_EQ(fp256::FromMont(fp256::Inv(ma)), FromHexStr(vec.a_inv));
  EXPECT_EQ(fp256::Mul(ma, fp256::ToMont(FromHexStr(vec.a_inv))),
            fp256::kOne);
}

INSTANTIATE_TEST_SUITE_P(PythonVectors, FieldVectorTest,
                         ::testing::ValuesIn(kVectors));

}  // namespace
}  // namespace atom
