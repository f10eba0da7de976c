#include "src/ldbc/ldbc.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace gopt {

namespace {

const char* kFirstNames[] = {"Jan",   "Emma",  "Liam", "Olga",  "Wei",
                             "Aisha", "Carlos", "Yuki", "Ravi",  "Sofia",
                             "Ahmed", "Nina",  "Jack", "Marta", "Chen",
                             "Lucas", "Ines",  "Omar", "Keiko", "Paul"};
const char* kLastNames[] = {"Smith", "Garcia", "Mueller", "Tanaka", "Kumar",
                            "Ivanov", "Chen",  "Silva",   "Khan",   "Rossi",
                            "Novak", "Kim",   "Lopez",   "Sato",    "Braun"};
const char* kBrowsers[] = {"Chrome", "Firefox", "Safari", "Edge", "Opera"};
const char* kLanguages[] = {"en", "zh", "es", "de", "ja", "pt"};

}  // namespace

GraphSchema MakeLdbcSchema() {
  GraphSchema s;
  using K = Value::Kind;
  TypeId person = s.AddVertexType(
      "Person", {{"id", K::kInt},
                 {"firstName", K::kString},
                 {"lastName", K::kString},
                 {"birthday", K::kInt},
                 {"creationDate", K::kInt},
                 {"browserUsed", K::kString},
                 {"gender", K::kString}});
  TypeId forum = s.AddVertexType(
      "Forum", {{"id", K::kInt}, {"title", K::kString}, {"creationDate", K::kInt}});
  TypeId post = s.AddVertexType(
      "Post", {{"id", K::kInt},
               {"creationDate", K::kInt},
               {"content", K::kString},
               {"length", K::kInt},
               {"browserUsed", K::kString},
               {"language", K::kString}});
  TypeId comment = s.AddVertexType(
      "Comment", {{"id", K::kInt},
                  {"creationDate", K::kInt},
                  {"content", K::kString},
                  {"length", K::kInt},
                  {"browserUsed", K::kString}});
  TypeId place = s.AddVertexType(
      "Place", {{"id", K::kInt}, {"name", K::kString}, {"type", K::kString}});
  TypeId tag = s.AddVertexType("Tag",
                               {{"id", K::kInt}, {"name", K::kString}});
  TypeId tagclass = s.AddVertexType(
      "TagClass", {{"id", K::kInt}, {"name", K::kString}});
  TypeId organisation = s.AddVertexType(
      "Organisation",
      {{"id", K::kInt}, {"name", K::kString}, {"type", K::kString}});

  s.AddEdgeType("KNOWS", {{person, person}}, {{"creationDate", K::kInt}});
  s.AddEdgeType("HAS_MEMBER", {{forum, person}}, {{"joinDate", K::kInt}});
  s.AddEdgeType("HAS_MODERATOR", {{forum, person}});
  s.AddEdgeType("CONTAINER_OF", {{forum, post}});
  s.AddEdgeType("HAS_CREATOR", {{post, person}, {comment, person}});
  s.AddEdgeType("LIKES", {{person, post}, {person, comment}},
                {{"creationDate", K::kInt}});
  s.AddEdgeType("IS_LOCATED_IN",
                {{person, place}, {post, place}, {comment, place},
                 {organisation, place}});
  s.AddEdgeType("REPLY_OF", {{comment, post}, {comment, comment}});
  s.AddEdgeType("HAS_TAG", {{post, tag}, {comment, tag}, {forum, tag}});
  s.AddEdgeType("HAS_INTEREST", {{person, tag}});
  s.AddEdgeType("HAS_TYPE", {{tag, tagclass}});
  s.AddEdgeType("IS_SUBCLASS_OF", {{tagclass, tagclass}});
  s.AddEdgeType("IS_PART_OF", {{place, place}});
  s.AddEdgeType("STUDY_AT", {{person, organisation}},
                {{"classYear", K::kInt}});
  s.AddEdgeType("WORK_AT", {{person, organisation}},
                {{"workFrom", K::kInt}});
  return s;
}

LdbcGraph GenerateLdbc(double sf, uint64_t seed) {
  GraphSchema schema = MakeLdbcSchema();
  auto person = *schema.FindVertexType("Person");
  auto forum = *schema.FindVertexType("Forum");
  auto post = *schema.FindVertexType("Post");
  auto comment = *schema.FindVertexType("Comment");
  auto place = *schema.FindVertexType("Place");
  auto tag = *schema.FindVertexType("Tag");
  auto tagclass = *schema.FindVertexType("TagClass");
  auto organisation = *schema.FindVertexType("Organisation");
  auto knows = *schema.FindEdgeType("KNOWS");
  auto has_member = *schema.FindEdgeType("HAS_MEMBER");
  auto has_moderator = *schema.FindEdgeType("HAS_MODERATOR");
  auto container_of = *schema.FindEdgeType("CONTAINER_OF");
  auto has_creator = *schema.FindEdgeType("HAS_CREATOR");
  auto likes = *schema.FindEdgeType("LIKES");
  auto located_in = *schema.FindEdgeType("IS_LOCATED_IN");
  auto reply_of = *schema.FindEdgeType("REPLY_OF");
  auto has_tag = *schema.FindEdgeType("HAS_TAG");
  auto has_interest = *schema.FindEdgeType("HAS_INTEREST");
  auto has_type = *schema.FindEdgeType("HAS_TYPE");
  auto subclass_of = *schema.FindEdgeType("IS_SUBCLASS_OF");
  auto part_of = *schema.FindEdgeType("IS_PART_OF");
  auto study_at = *schema.FindEdgeType("STUDY_AT");
  auto work_at = *schema.FindEdgeType("WORK_AT");

  auto g = std::make_shared<PropertyGraph>(schema);
  Rng rng(seed);

  const size_t n_person = static_cast<size_t>(900 * sf) + 10;
  const size_t n_forum = static_cast<size_t>(280 * sf) + 5;
  const size_t n_post = static_cast<size_t>(2400 * sf) + 20;
  const size_t n_comment = static_cast<size_t>(4800 * sf) + 20;
  const size_t n_place = 60;      // fixed dimension tables
  const size_t n_tag = 120;
  const size_t n_tagclass = 15;
  const size_t n_org = 60;

  std::vector<VertexId> persons, forums, posts, comments, places, tags,
      tagclasses, orgs;

  // ---- dimension vertices ----
  for (size_t i = 0; i < n_place; ++i) {
    VertexId v = g->AddVertex(place);
    places.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "name", Value("place_" + std::to_string(i)));
    const char* kind = i < 45 ? "city" : (i < 57 ? "country" : "continent");
    g->SetVertexProp(v, "type", Value(kind));
  }
  // Hierarchy: city -> country -> continent.
  for (size_t i = 0; i < 45; ++i) {
    g->AddEdge(places[i], places[45 + i % 12], part_of);
  }
  for (size_t i = 45; i < 57; ++i) {
    g->AddEdge(places[i], places[57 + i % 3], part_of);
  }
  for (size_t i = 0; i < n_tagclass; ++i) {
    VertexId v = g->AddVertex(tagclass);
    tagclasses.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "name", Value("tagclass_" + std::to_string(i)));
    if (i > 0) g->AddEdge(v, tagclasses[(i - 1) / 2], subclass_of);
  }
  for (size_t i = 0; i < n_tag; ++i) {
    VertexId v = g->AddVertex(tag);
    tags.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "name", Value("tag_" + std::to_string(i)));
    g->AddEdge(v, tagclasses[rng.NextZipf(n_tagclass, 0.8)], has_type);
  }
  for (size_t i = 0; i < n_org; ++i) {
    VertexId v = g->AddVertex(organisation);
    orgs.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "name", Value("org_" + std::to_string(i)));
    g->SetVertexProp(v, "type", Value(i % 3 == 0 ? "university" : "company"));
    g->AddEdge(v, places[rng.NextZipf(n_place, 0.7)], located_in);
  }

  // ---- persons ----
  for (size_t i = 0; i < n_person; ++i) {
    VertexId v = g->AddVertex(person);
    persons.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "firstName", Value(kFirstNames[rng.NextInt(20)]));
    g->SetVertexProp(v, "lastName", Value(kLastNames[rng.NextInt(15)]));
    g->SetVertexProp(v, "birthday",
                     Value(static_cast<int64_t>(rng.NextRange(19500101, 20051231))));
    g->SetVertexProp(v, "creationDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    g->SetVertexProp(v, "browserUsed", Value(kBrowsers[rng.NextInt(5)]));
    g->SetVertexProp(v, "gender", Value(rng.NextBool(0.5) ? "male" : "female"));
    g->AddEdge(v, places[rng.NextZipf(45, 0.9)], located_in);
    if (rng.NextBool(0.5)) {
      EdgeId e = g->AddEdge(v, orgs[rng.NextZipf(n_org, 0.8)], study_at);
      g->SetEdgeProp(e, "classYear",
                     Value(static_cast<int64_t>(rng.NextRange(2000, 2022))));
    }
    if (rng.NextBool(0.7)) {
      EdgeId e = g->AddEdge(v, orgs[rng.NextZipf(n_org, 0.8)], work_at);
      g->SetEdgeProp(e, "workFrom",
                     Value(static_cast<int64_t>(rng.NextRange(2000, 2022))));
    }
    size_t n_interests = 2 + rng.NextInt(6);
    for (size_t k = 0; k < n_interests; ++k) {
      g->AddEdge(v, tags[rng.NextZipf(n_tag, 1.0)], has_interest);
    }
  }
  // KNOWS: power-law out-degree, community-biased targets. Draws are not
  // deduplicated: a repeated (src, dst) pair adds a parallel KNOWS edge,
  // and homomorphism counts over KNOWS count each parallel edge.
  {
    for (size_t i = 0; i < n_person; ++i) {
      size_t d = rng.NextPowerLaw(60, 2.2) + 1;
      for (size_t k = 0; k < d; ++k) {
        // 70% local community (nearby ids), 30% global.
        size_t j;
        if (rng.NextBool(0.7)) {
          int64_t off = rng.NextRange(-30, 30);
          j = static_cast<size_t>(
              std::clamp<int64_t>(static_cast<int64_t>(i) + off, 0,
                                  static_cast<int64_t>(n_person) - 1));
        } else {
          j = rng.NextInt(n_person);
        }
        if (j == i) continue;
        EdgeId e = g->AddEdge(persons[i], persons[j], knows);
        g->SetEdgeProp(e, "creationDate",
                       Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
      }
    }
  }

  // ---- forums ----
  for (size_t i = 0; i < n_forum; ++i) {
    VertexId v = g->AddVertex(forum);
    forums.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "title", Value("forum_" + std::to_string(i)));
    g->SetVertexProp(v, "creationDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    g->AddEdge(v, persons[rng.NextInt(n_person)], has_moderator);
    size_t n_members = 3 + rng.NextPowerLaw(50, 1.9);
    for (size_t k = 0; k < n_members; ++k) {
      EdgeId e = g->AddEdge(v, persons[rng.NextInt(n_person)], has_member);
      g->SetEdgeProp(e, "joinDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    }
    size_t n_ftags = 1 + rng.NextInt(3);
    for (size_t k = 0; k < n_ftags; ++k) {
      g->AddEdge(v, tags[rng.NextZipf(n_tag, 1.0)], has_tag);
    }
  }

  // ---- posts ----
  for (size_t i = 0; i < n_post; ++i) {
    VertexId v = g->AddVertex(post);
    posts.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    int64_t len = rng.NextRange(10, 2000);
    g->SetVertexProp(v, "creationDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    g->SetVertexProp(v, "content", Value("post content " + std::to_string(i)));
    g->SetVertexProp(v, "length", Value(len));
    g->SetVertexProp(v, "browserUsed", Value(kBrowsers[rng.NextInt(5)]));
    g->SetVertexProp(v, "language", Value(kLanguages[rng.NextInt(6)]));
    g->AddEdge(forums[rng.NextZipf(n_forum, 0.9)], v, container_of);
    g->AddEdge(v, persons[rng.NextZipf(n_person, 0.8)], has_creator);
    g->AddEdge(v, places[45 + rng.NextInt(12)], located_in);
    size_t n_ptags = rng.NextInt(3);
    for (size_t k = 0; k < n_ptags; ++k) {
      g->AddEdge(v, tags[rng.NextZipf(n_tag, 1.0)], has_tag);
    }
  }

  // ---- comments (reply trees) ----
  for (size_t i = 0; i < n_comment; ++i) {
    VertexId v = g->AddVertex(comment);
    comments.push_back(v);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "creationDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    g->SetVertexProp(v, "content", Value("reply " + std::to_string(i)));
    g->SetVertexProp(v, "length", Value(static_cast<int64_t>(rng.NextRange(5, 500))));
    g->SetVertexProp(v, "browserUsed", Value(kBrowsers[rng.NextInt(5)]));
    if (i == 0 || rng.NextBool(0.6)) {
      g->AddEdge(v, posts[rng.NextZipf(n_post, 0.8)], reply_of);
    } else {
      g->AddEdge(v, comments[rng.NextInt(i)], reply_of);
    }
    g->AddEdge(v, persons[rng.NextZipf(n_person, 0.8)], has_creator);
    g->AddEdge(v, places[45 + rng.NextInt(12)], located_in);
    if (rng.NextBool(0.4)) {
      g->AddEdge(v, tags[rng.NextZipf(n_tag, 1.0)], has_tag);
    }
  }

  // ---- likes ----
  for (size_t i = 0; i < n_person; ++i) {
    size_t d = rng.NextPowerLaw(30, 2.0);
    for (size_t k = 0; k < d; ++k) {
      VertexId target = rng.NextBool(0.55)
                            ? posts[rng.NextZipf(n_post, 0.9)]
                            : comments[rng.NextZipf(n_comment, 0.9)];
      EdgeId e = g->AddEdge(persons[i], target, likes);
      g->SetEdgeProp(e, "creationDate",
                     Value(static_cast<int64_t>(rng.NextRange(20100101, 20221231))));
    }
  }

  g->Finalize();
  return LdbcGraph{g, sf};
}

GraphSchema MakePaperSchema() {
  GraphSchema s;
  using K = Value::Kind;
  TypeId person = s.AddVertexType(
      "Person", {{"id", K::kInt}, {"name", K::kString}});
  TypeId product = s.AddVertexType(
      "Product", {{"id", K::kInt}, {"name", K::kString}});
  TypeId place = s.AddVertexType(
      "Place", {{"id", K::kInt}, {"name", K::kString}});
  s.AddEdgeType("Knows", {{person, person}});
  s.AddEdgeType("Purchases", {{person, product}});
  s.AddEdgeType("LocatedIn", {{person, place}});
  s.AddEdgeType("ProducedIn", {{product, place}});
  return s;
}

FraudGraph GenerateFraud(size_t accounts, double avg_degree, uint64_t seed) {
  GraphSchema s;
  using K = Value::Kind;
  TypeId account = s.AddVertexType(
      "Account", {{"id", K::kInt}, {"balance", K::kInt}});
  TypeId transfer =
      s.AddEdgeType("TRANSFER", {{account, account}}, {{"amount", K::kInt}});
  auto g = std::make_shared<PropertyGraph>(s);
  Rng rng(seed);
  for (size_t i = 0; i < accounts; ++i) {
    VertexId v = g->AddVertex(account);
    g->SetVertexProp(v, "id", Value(static_cast<int64_t>(i)));
    g->SetVertexProp(v, "balance",
                     Value(static_cast<int64_t>(rng.NextRange(0, 1000000))));
  }
  const uint64_t max_deg =
      std::max<uint64_t>(4, static_cast<uint64_t>(avg_degree * 4));
  const uint64_t base_deg = static_cast<uint64_t>(avg_degree / 2);
  for (size_t i = 0; i < accounts; ++i) {
    size_t d = base_deg + rng.NextPowerLaw(max_deg, 2.1);
    for (size_t k = 0; k < d; ++k) {
      size_t j = rng.NextInt(accounts);
      if (j == i) continue;
      EdgeId e = g->AddEdge(i, j, transfer);
      g->SetEdgeProp(e, "amount",
                     Value(static_cast<int64_t>(rng.NextRange(1, 100000))));
    }
  }
  g->Finalize();
  return FraudGraph{g};
}

}  // namespace gopt
