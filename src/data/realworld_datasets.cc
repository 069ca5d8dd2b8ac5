#include "data/realworld_datasets.h"

#include <functional>

#include "data/names.h"
#include "util/string_util.h"

namespace dtt {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

int ScaledRows(double scale, int lo, int hi, Rng* rng) {
  int rows = static_cast<int>(rng->NextInt(lo, hi));
  rows = static_cast<int>(rows * scale);
  return std::max(4, rows);
}

// Corrupts a target value to emulate natural web-table noise: truncation,
// a stray character, or a different formatting convention.
std::string CorruptTarget(const std::string& t, Rng* rng) {
  if (t.empty()) return "?";
  switch (rng->NextBounded(4)) {
    case 0:  // truncate
      return t.substr(0, 1 + rng->NextBounded(t.size()));
    case 1: {  // flip one character
      std::string out = t;
      size_t i = rng->NextBounded(out.size());
      out[i] = static_cast<char>('a' + rng->NextBounded(26));
      return out;
    }
    case 2:  // stray suffix
      return t + "*";
    default:  // whitespace convention change
      return ReplaceAll(t, " ", "");
  }
}

using RowGen = std::function<void(std::string*, std::string*, Rng*)>;

TablePair GenerateTable(const std::string& name, int rows, double noise,
                        Rng* rng, const RowGen& gen) {
  TablePair table;
  table.name = name;
  int guard = rows * 10;
  while (static_cast<int>(table.num_rows()) < rows && guard-- > 0) {
    std::string s, t;
    gen(&s, &t, rng);
    if (s.empty() || t.empty()) continue;
    if (rng->NextBool(noise)) t = CorruptTarget(t, rng);
    table.source.push_back(std::move(s));
    table.target.push_back(std::move(t));
  }
  return table;
}

std::string TwoDigits(int v) { return StrFormat("%02d", v); }

// ---------------------------------------------------------------------------
// WT-sim topic generators (textual web-table transformations)
// ---------------------------------------------------------------------------

// Figure 1 of the paper: names -> user ids with per-row conditional rules.
void NameToUserId(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, /*middle_prob=*/0.25,
                                  /*missing_first_prob=*/0.08);
  *s = n.Full();
  std::string id;
  if (!n.first.empty()) id += ToLower(n.first.substr(0, 1)) + ".";
  if (!n.middle.empty()) id += ToLower(n.middle.substr(0, 1)) + ".";
  std::string last = ToLower(n.last);
  // Conditional truncation as in "g.h.litt" / "m.anders": long last names are
  // clipped so the id fits 8 characters.
  size_t budget = 8;
  size_t used = id.size();
  if (used + last.size() > budget) last = last.substr(0, budget - used);
  id += last;
  if (n.first.empty() && n.middle.empty()) id = ToLower(n.last);
  *t = id;
}

void NameToLastFirst(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.15, 0.0);
  *s = n.Full();
  *t = n.last + ", " + n.first;
}

void NameToEmail(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = n.Full();
  *t = ToLower(n.first) + "." + ToLower(n.last) + "@example.com";
}

void NameToInitials(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.3, 0.0);
  *s = n.Full();
  std::string out;
  for (const auto& part : SplitAny(*s, " ")) {
    out += ToUpper(part.substr(0, 1)) + ".";
  }
  *t = out;
}

void SwappedName(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = n.last + " " + n.first;
  *t = n.first + " " + n.last;
}

void IsoDateToUs(std::string* s, std::string* t, Rng* rng) {
  Date d = RandomDate(rng);
  *s = StrFormat("%04d-%s-%s", d.year, TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str());
  *t = StrFormat("%s/%s/%04d", TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str(), d.year);
}

void LongDateToIso(std::string* s, std::string* t, Rng* rng) {
  static const char* kMonths[] = {"January",   "February", "March",
                                  "April",     "May",      "June",
                                  "July",      "August",   "September",
                                  "October",   "November", "December"};
  Date d = RandomDate(rng);
  *s = StrFormat("%s %d, %04d", kMonths[d.month - 1], d.day, d.year);
  *t = StrFormat("%04d-%s-%s", d.year, TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str());
}

void PhoneParenToDots(std::string* s, std::string* t, Rng* rng) {
  std::string d = RandomPhoneDigits(rng);
  *s = StrFormat("(%s) %s-%s", d.substr(0, 3).c_str(), d.substr(3, 3).c_str(),
                 d.substr(6, 4).c_str());
  *t = d.substr(0, 3) + "." + d.substr(3, 3) + "." + d.substr(6, 4);
}

void UrlToDomain(std::string* s, std::string* t, Rng* rng) {
  std::string word = ToLower(PickFrom(corpus::CommonWords(), rng)) +
                     ToLower(PickFrom(corpus::CommonWords(), rng));
  std::string page = ToLower(PickFrom(corpus::CommonWords(), rng));
  *s = "http://www." + word + ".com/" + page;
  *t = word + ".com";
}

void PriceToNumber(std::string* s, std::string* t, Rng* rng) {
  int whole = static_cast<int>(rng->NextInt(1, 9999));
  int cents = static_cast<int>(rng->NextInt(0, 99));
  std::string w = std::to_string(whole);
  std::string grouped = w;
  if (w.size() > 3) grouped = w.substr(0, w.size() - 3) + "," + w.substr(w.size() - 3);
  *s = "$" + grouped + "." + TwoDigits(cents);
  *t = w + "." + TwoDigits(cents);
}

void CitationToShort(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  int year = static_cast<int>(rng->NextInt(1980, 2023));
  std::string title = PickFrom(corpus::CommonWords(), rng) + " " +
                      PickFrom(corpus::CommonWords(), rng);
  *s = StrFormat("%s, %s. (%d). %s.", n.last.c_str(),
                 n.first.substr(0, 1).c_str(), year, title.c_str());
  *t = StrFormat("%s %d", n.last.c_str(), year);
}

void AddressToStreet(std::string* s, std::string* t, Rng* rng) {
  int num = static_cast<int>(rng->NextInt(1, 9999));
  const std::string& street = PickFrom(corpus::Streets(), rng);
  const std::string& city = PickFrom(corpus::Cities(), rng);
  *s = StrFormat("%d %s, %s", num, street.c_str(), city.c_str());
  *t = street;
}

void CityStateReorder(std::string* s, std::string* t, Rng* rng) {
  const std::string& city = PickFrom(corpus::Cities(), rng);
  std::string code;
  code += static_cast<char>('A' + rng->NextBounded(26));
  code += static_cast<char>('A' + rng->NextBounded(26));
  *s = city + ", " + code;
  *t = code + "-" + ToUpper(city);
}

void DatetimeToTime(std::string* s, std::string* t, Rng* rng) {
  Date d = RandomDate(rng);
  int hh = static_cast<int>(rng->NextInt(0, 23));
  int mm = static_cast<int>(rng->NextInt(0, 59));
  *s = StrFormat("%04d-%s-%sT%s:%s", d.year, TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str(), TwoDigits(hh).c_str(),
                 TwoDigits(mm).c_str());
  *t = StrFormat("%s:%s", TwoDigits(hh).c_str(), TwoDigits(mm).c_str());
}

void ScoreDashToColon(std::string* s, std::string* t, Rng* rng) {
  int a = static_cast<int>(rng->NextInt(0, 9));
  int b = static_cast<int>(rng->NextInt(0, 9));
  const std::string& home = PickFrom(corpus::Cities(), rng);
  *s = StrFormat("%s %d-%d", home.c_str(), a, b);
  *t = StrFormat("%d:%d", a, b);
}

void CompanyToCode(std::string* s, std::string* t, Rng* rng) {
  const std::string& company = PickFrom(corpus::Companies(), rng);
  *s = company;
  std::string first = SplitAny(company, " ")[0];
  *t = ToUpper(first.substr(0, std::min<size_t>(4, first.size())));
}

void CoordinatesFormat(std::string* s, std::string* t, Rng* rng) {
  int lat_w = static_cast<int>(rng->NextInt(0, 89));
  int lat_f = static_cast<int>(rng->NextInt(0, 99));
  int lon_w = static_cast<int>(rng->NextInt(0, 179));
  int lon_f = static_cast<int>(rng->NextInt(0, 99));
  *s = StrFormat("%d.%s,%d.%s", lat_w, TwoDigits(lat_f).c_str(), lon_w,
                 TwoDigits(lon_f).c_str());
  *t = StrFormat("%d.%s N %d.%s W", lat_w, TwoDigits(lat_f).c_str(), lon_w,
                 TwoDigits(lon_f).c_str());
}

void IdHyphenation(std::string* s, std::string* t, Rng* rng) {
  std::string digits;
  for (int i = 0; i < 9; ++i) {
    digits += static_cast<char>('0' + rng->NextBounded(10));
  }
  *s = digits;
  *t = digits.substr(0, 3) + "-" + digits.substr(3, 3) + "-" + digits.substr(6);
}

void FilePathToName(std::string* s, std::string* t, Rng* rng) {
  std::string dir = ToLower(PickFrom(corpus::CommonWords(), rng));
  std::string file = ToLower(PickFrom(corpus::CommonWords(), rng));
  static const char* kExts[] = {"pdf", "txt", "csv", "doc"};
  const char* ext = kExts[rng->NextBounded(4)];
  *s = "/" + dir + "/" + file + "." + ext;
  *t = file + "." + ext;
}

// --- Style-varied topics -------------------------------------------------
// Real web tables rarely follow one convention: each row's target format is
// the *row author's* choice (user ids picked by the users themselves, dates
// typed by different editors). The choice is a deterministic function of the
// row content, so the ground truth is stable, but no single textual
// transformation covers every row — the WT property the paper highlights
// ("not all entities can be transformed using traditional string-based
// transformations", §5.2). Generative methods survive via the edit-distance
// join; exact-match methods lose recall.

void NameToStyledUserId(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.1, 0.0);
  *s = n.Full();
  std::string first = ToLower(n.first);
  std::string last = ToLower(n.last);
  uint64_t h = Rng::HashString(*s);
  switch (h % 4) {  // the "user's" preference
    case 0:
      *t = first.substr(0, 1) + "." + last;
      break;
    case 1:
      *t = first.substr(0, 1) + last;
      break;
    case 2:
      *t = first + "_" + last;
      break;
    default:
      *t = first + "." + last.substr(0, 1);
      break;
  }
}

void StyledDate(std::string* s, std::string* t, Rng* rng) {
  Date d = RandomDate(rng);
  *s = StrFormat("%04d-%s-%s", d.year, TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str());
  switch (Rng::HashString(*s) % 3) {  // the row editor's habit
    case 0:
      *t = StrFormat("%s/%s/%04d", TwoDigits(d.month).c_str(),
                     TwoDigits(d.day).c_str(), d.year);
      break;
    case 1:
      *t = StrFormat("%s.%s.%04d", TwoDigits(d.day).c_str(),
                     TwoDigits(d.month).c_str(), d.year);
      break;
    default:
      *t = StrFormat("%04d%s%s", d.year, TwoDigits(d.month).c_str(),
                     TwoDigits(d.day).c_str());
      break;
  }
}

void StyledPhone(std::string* s, std::string* t, Rng* rng) {
  std::string d = RandomPhoneDigits(rng);
  *s = d;
  switch (Rng::HashString(*s) % 3) {
    case 0:
      *t = StrFormat("(%s) %s-%s", d.substr(0, 3).c_str(),
                     d.substr(3, 3).c_str(), d.substr(6, 4).c_str());
      break;
    case 1:
      *t = d.substr(0, 3) + "-" + d.substr(3, 3) + "-" + d.substr(6, 4);
      break;
    default:
      *t = d.substr(0, 3) + "." + d.substr(3, 3) + "." + d.substr(6, 4);
      break;
  }
}

// ---------------------------------------------------------------------------
// SS-sim task generators (spreadsheet cleaning)
// ---------------------------------------------------------------------------

void ExtractFirstName(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.1, 0.0);
  *s = n.Full();
  *t = n.first;
}

void ExtractLastName(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.1, 0.0);
  *s = n.Full();
  *t = n.last;
}

void PhoneDigitsToParen(std::string* s, std::string* t, Rng* rng) {
  std::string d = RandomPhoneDigits(rng);
  *s = d;
  *t = StrFormat("(%s) %s-%s", d.substr(0, 3).c_str(), d.substr(3, 3).c_str(),
                 d.substr(6, 4).c_str());
}

void PhoneStripFormatting(std::string* s, std::string* t, Rng* rng) {
  std::string d = RandomPhoneDigits(rng);
  *s = d.substr(0, 3) + "-" + d.substr(3, 3) + "-" + d.substr(6, 4);
  *t = d;
}

void ZeroPadId(std::string* s, std::string* t, Rng* rng) {
  int v = static_cast<int>(rng->NextInt(1, 99999));
  *s = std::to_string(v);
  *t = StrFormat("%05d", v);
}

void UppercaseName(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = n.Full();
  *t = ToUpper(*s);
}

void LowercaseEmail(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = n.first + "." + n.last + "@Example.COM";
  *t = ToLower(*s);
}

void EmailToDomain(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  std::string dom = ToLower(PickFrom(corpus::CommonWords(), rng)) + ".org";
  *s = ToLower(n.first) + "@" + dom;
  *t = dom;
}

void DateReorder(std::string* s, std::string* t, Rng* rng) {
  Date d = RandomDate(rng);
  *s = StrFormat("%04d-%s-%s", d.year, TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str());
  *t = StrFormat("%s/%s/%04d", TwoDigits(d.day).c_str(),
                 TwoDigits(d.month).c_str(), d.year);
}

void FileExtension(std::string* s, std::string* t, Rng* rng) {
  std::string file = ToLower(PickFrom(corpus::CommonWords(), rng));
  static const char* kExts[] = {"pdf", "txt", "csv", "xls"};
  const char* ext = kExts[rng->NextBounded(4)];
  *s = file + "." + ext;
  *t = ext;
}

void StripExtension(std::string* s, std::string* t, Rng* rng) {
  std::string file = ToLower(PickFrom(corpus::CommonWords(), rng));
  *s = file + ".txt";
  *t = file;
}

void StripProductPrefix(std::string* s, std::string* t, Rng* rng) {
  int v = static_cast<int>(rng->NextInt(100, 99999));
  *s = "prod-" + std::to_string(v);
  *t = std::to_string(v);
}

void AddProductPrefix(std::string* s, std::string* t, Rng* rng) {
  int v = static_cast<int>(rng->NextInt(100, 99999));
  *s = std::to_string(v);
  *t = "prod-" + std::to_string(v);
}

void NameToLastInitial(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = n.Full();
  *t = n.last + ", " + ToUpper(n.first.substr(0, 1)) + ".";
}

void ExtractYear(std::string* s, std::string* t, Rng* rng) {
  Date d = RandomDate(rng);
  *s = StrFormat("%s/%s/%04d", TwoDigits(d.month).c_str(),
                 TwoDigits(d.day).c_str(), d.year);
  *t = std::to_string(d.year);
}

void DollarPrefix(std::string* s, std::string* t, Rng* rng) {
  int whole = static_cast<int>(rng->NextInt(1, 9999));
  int cents = static_cast<int>(rng->NextInt(0, 99));
  *s = StrFormat("%d.%s", whole, TwoDigits(cents).c_str());
  *t = "$" + *s;
}

void UserToEmail(std::string* s, std::string* t, Rng* rng) {
  std::string user = ToLower(PickFrom(corpus::FirstNames(), rng)) +
                     std::to_string(rng->NextBounded(100));
  *s = user;
  *t = user + "@mail.com";
}

void TitleCaseName(std::string* s, std::string* t, Rng* rng) {
  PersonName n = RandomPersonName(rng, 0.0, 0.0);
  *s = ToLower(n.Full());
  std::string out;
  auto parts = SplitAny(*s, " ");
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += " ";
    out += ToUpper(parts[i].substr(0, 1)) + parts[i].substr(1);
  }
  *t = out;
}

// ---------------------------------------------------------------------------

struct Topic {
  const char* name;
  RowGen gen;
};

const std::vector<Topic>& WtTopics() {
  static const std::vector<Topic> kTopics = {
      {"name-userid", NameToUserId},
      {"name-lastfirst", NameToLastFirst},
      {"name-email", NameToEmail},
      {"name-initials", NameToInitials},
      {"name-swap", SwappedName},
      {"date-iso-us", IsoDateToUs},
      {"date-long-iso", LongDateToIso},
      {"phone-paren-dots", PhoneParenToDots},
      {"url-domain", UrlToDomain},
      {"price-number", PriceToNumber},
      {"citation-short", CitationToShort},
      {"address-street", AddressToStreet},
      {"city-state", CityStateReorder},
      {"datetime-time", DatetimeToTime},
      {"score-colon", ScoreDashToColon},
      {"company-code", CompanyToCode},
      {"coords-format", CoordinatesFormat},
      {"styled-userid", NameToStyledUserId},
      {"styled-date", StyledDate},
      {"styled-phone", StyledPhone}};
  return kTopics;
}

const std::vector<Topic>& SsTopics() {
  static const std::vector<Topic> kTopics = {
      {"first-name", ExtractFirstName},
      {"last-name", ExtractLastName},
      {"phone-format", PhoneDigitsToParen},
      {"phone-strip", PhoneStripFormatting},
      {"zero-pad", ZeroPadId},
      {"upper-name", UppercaseName},
      {"lower-email", LowercaseEmail},
      {"email-domain", EmailToDomain},
      {"date-reorder", DateReorder},
      {"file-ext", FileExtension},
      {"strip-ext", StripExtension},
      {"strip-prefix", StripProductPrefix},
      {"add-prefix", AddProductPrefix},
      {"last-initial", NameToLastInitial},
      {"extract-year", ExtractYear},
      {"dollar-prefix", DollarPrefix},
      {"user-email", UserToEmail},
      {"title-case", TitleCaseName},
      {"id-hyphen", IdHyphenation},
      {"path-file", FilePathToName}};
  return kTopics;
}

}  // namespace

Dataset MakeWebTables(const RealWorldOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "WT";
  const auto& topics = WtTopics();
  for (int i = 0; i < opts.wt_tables; ++i) {
    const Topic& topic = topics[static_cast<size_t>(i) % topics.size()];
    int rows = ScaledRows(opts.row_scale, 60, 125, rng);
    ds.tables.push_back(GenerateTable(
        StrFormat("wt-%02d-%s", i, topic.name), rows, opts.wt_noise, rng,
        topic.gen));
  }
  return ds;
}

Dataset MakeSpreadsheet(const RealWorldOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "SS";
  const auto& topics = SsTopics();
  for (int i = 0; i < opts.ss_tables; ++i) {
    const Topic& topic = topics[static_cast<size_t>(i) % topics.size()];
    int rows = ScaledRows(opts.row_scale, 18, 52, rng);
    ds.tables.push_back(GenerateTable(
        StrFormat("ss-%03d-%s", i, topic.name), rows, opts.ss_noise, rng,
        topic.gen));
  }
  // The two tables the paper's runtime experiment names explicitly (§5.5).
  ds.tables.push_back(GenerateTable("phone-10-short", 7, 0.0, rng,
                                    PhoneDigitsToParen));
  ds.tables.push_back(GenerateTable("phone-10-long", 100, 0.0, rng,
                                    PhoneDigitsToParen));
  return ds;
}

Dataset MakeKbwt(const RealWorldOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "KBWT";
  auto kb = KnowledgeBase::Builtin();

  // Parametric relations: random mappings that stand in for ISBN->Author and
  // City->Zip; unknowable without the exact KB tables.
  auto make_parametric = [&](const std::string& name, int rows,
                             const std::function<std::string(Rng*)>& key_gen,
                             const std::function<std::string(Rng*)>& val_gen) {
    TablePair table;
    table.name = name;
    for (int r = 0; r < rows; ++r) {
      table.source.push_back(key_gen(rng));
      table.target.push_back(val_gen(rng));
    }
    return table;
  };

  const auto& rels = kb->relations();
  int parametric_rows = static_cast<int>(120 * opts.row_scale);
  for (int i = 0; i < opts.kbwt_tables; ++i) {
    size_t mode = static_cast<size_t>(i) % (rels.size() + 2);
    if (mode < rels.size()) {
      const KbRelation& rel = rels[mode];
      TablePair table;
      table.name = StrFormat("kbwt-%02d-%s", i, rel.name.c_str());
      auto keys = rel.Keys();
      rng->Shuffle(&keys);
      // Use (almost) the full relation; KB tables are naturally bounded.
      for (const auto& key : keys) {
        table.source.push_back(key);
        table.target.push_back(rel.map.at(key));
      }
      ds.tables.push_back(std::move(table));
    } else if (mode == rels.size()) {
      ds.tables.push_back(make_parametric(
          StrFormat("kbwt-%02d-isbn_to_author", i),
          std::max(8, parametric_rows),
          [](Rng* r) {
            std::string isbn = "978-";
            for (int d = 0; d < 9; ++d) {
              isbn += static_cast<char>('0' + r->NextBounded(10));
            }
            return isbn;
          },
          [](Rng* r) {
            PersonName n = RandomPersonName(r, 0.0, 0.0);
            return n.Full();
          }));
    } else {
      ds.tables.push_back(make_parametric(
          StrFormat("kbwt-%02d-city_to_zip", i), std::max(8, parametric_rows),
          [](Rng* r) {
            return PickFrom(corpus::Cities(), r) +
                   StrFormat(" %c%c", 'A' + static_cast<char>(r->NextBounded(26)),
                             'A' + static_cast<char>(r->NextBounded(26)));
          },
          [](Rng* r) {
            std::string zip;
            for (int d = 0; d < 5; ++d) {
              zip += static_cast<char>('0' + r->NextBounded(10));
            }
            return zip;
          }));
    }
  }
  return ds;
}

const TablePair* FindTable(const Dataset& ds, const std::string& name) {
  for (const auto& t : ds.tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace dtt
