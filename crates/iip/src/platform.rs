//! The IIP platform state machine: accounts, escrowed campaign
//! budgets, offers, postback settlement.

use crate::economics::{PayoutSplit, Settlement};
use crate::offer::{describe_goal, Offer, OfferStatus};
use crate::vetting::{DeveloperApplication, IipProfile, VettingOutcome};
use iiscope_attribution::{ConversionGoal, Postback};
use iiscope_types::{
    CampaignId, Country, DeveloperId, Error, IipId, OfferId, PackageName, Result, SeedFork,
    SimTime, Usd,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// What a developer submits to start a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The paying developer (must hold an account on the platform).
    pub developer: DeveloperId,
    /// Advertised app.
    pub package: PackageName,
    /// Play Store URL placed in the offer.
    pub store_url: String,
    /// Completion requirement.
    pub goal: ConversionGoal,
    /// Payout per completion.
    pub payout: Usd,
    /// Number of completions to buy.
    pub cap: u64,
    /// Geo targeting (empty = worldwide).
    pub countries: Vec<Country>,
}

/// A running (or finished) campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Platform-scoped id.
    pub id: CampaignId,
    /// The spec it was created from.
    pub spec: CampaignSpec,
    /// The attribution tag the mediator certifies against.
    pub tag: String,
    /// The published offer.
    pub offer: OfferId,
    /// Creation instant.
    pub created: SimTime,
    /// Completions accepted so far.
    pub completions: u64,
    /// Conversions rejected by anti-fraud.
    pub rejected: u64,
}

struct Account {
    balance: Usd,
}

struct Inner {
    accounts: BTreeMap<DeveloperId, Account>,
    campaigns: BTreeMap<CampaignId, Campaign>,
    by_tag: BTreeMap<String, CampaignId>,
    offers: BTreeMap<OfferId, Offer>,
    settlement: Settlement,
    next_campaign: u64,
    next_offer: u64,
}

/// One incentivized install platform. Share via `Arc`.
pub struct IipPlatform {
    /// Operating profile (vetting rules, cuts, audience).
    pub profile: IipProfile,
    /// Default affiliate cut of the post-IIP remainder (percent).
    pub affiliate_cut_percent: u8,
    inner: Mutex<Inner>,
    seed: SeedFork,
}

impl IipPlatform {
    /// Creates the platform for `iip` with its Table 1 profile.
    pub fn new(iip: IipId, seed: SeedFork) -> IipPlatform {
        IipPlatform {
            profile: IipProfile::for_iip(iip),
            affiliate_cut_percent: 25,
            inner: Mutex::new(Inner {
                accounts: BTreeMap::new(),
                campaigns: BTreeMap::new(),
                by_tag: BTreeMap::new(),
                offers: BTreeMap::new(),
                settlement: Settlement::new(),
                next_campaign: 1,
                next_offer: 1,
            }),
            seed,
        }
    }

    /// Which platform this is.
    pub fn id(&self) -> IipId {
        self.profile.iip
    }

    /// Registers a developer; on acceptance the deposit becomes the
    /// account balance.
    pub fn register_developer(&self, application: &DeveloperApplication) -> Result<()> {
        match self.profile.review(application) {
            VettingOutcome::Accepted => {
                let mut inner = self.inner.lock();
                inner
                    .accounts
                    .entry(application.developer)
                    .or_insert(Account { balance: Usd::ZERO })
                    .balance += application.deposit;
                Ok(())
            }
            VettingOutcome::Rejected(reason) => Err(Error::Denied(format!(
                "{} rejected registration: {reason}",
                self.profile.iip
            ))),
        }
    }

    /// Tops up an existing account.
    pub fn deposit(&self, developer: DeveloperId, amount: Usd) -> Result<()> {
        let mut inner = self.inner.lock();
        let account = inner
            .accounts
            .get_mut(&developer)
            .ok_or_else(|| Error::NotFound(format!("no account for {developer}")))?;
        account.balance += amount;
        Ok(())
    }

    /// Account balance.
    pub fn balance(&self, developer: DeveloperId) -> Option<Usd> {
        self.inner
            .lock()
            .accounts
            .get(&developer)
            .map(|a| a.balance)
    }

    /// Creates a campaign, escrowing `payout × cap` from the account,
    /// and publishes its offer. Returns the campaign id and the
    /// attribution tag the developer must register with the mediator.
    pub fn create_campaign(
        &self,
        spec: CampaignSpec,
        now: SimTime,
    ) -> Result<(CampaignId, String)> {
        if spec.cap == 0 {
            return Err(Error::InvalidState("campaign cap must be positive".into()));
        }
        if spec.payout <= Usd::ZERO {
            return Err(Error::InvalidState("payout must be positive".into()));
        }
        let mut inner = self.inner.lock();
        let budget = spec.payout * spec.cap as i64;
        let account = inner
            .accounts
            .get_mut(&spec.developer)
            .ok_or_else(|| Error::Denied(format!("no account for {}", spec.developer)))?;
        if account.balance < budget {
            return Err(Error::Denied(format!(
                "insufficient balance: need {budget}, have {}",
                account.balance
            )));
        }
        account.balance -= budget;

        let campaign_id = CampaignId(inner.next_campaign);
        inner.next_campaign += 1;
        let offer_id = OfferId(inner.next_offer);
        inner.next_offer += 1;
        let tag = format!(
            "{}-c{}",
            self.profile
                .iip
                .name()
                .to_ascii_lowercase()
                .replace('-', ""),
            campaign_id.raw()
        );
        let mut rng = self.seed.fork_idx("campaign", campaign_id.raw()).rng();
        let description = describe_goal(&spec.goal, &mut rng);
        let offer = Offer {
            id: offer_id,
            campaign: campaign_id,
            iip: self.profile.iip,
            package: spec.package.clone(),
            store_url: spec.store_url.clone(),
            description,
            payout: spec.payout,
            goal: spec.goal.clone(),
            countries: spec.countries.clone(),
            created: now,
            cap: spec.cap,
            completed: 0,
            status: OfferStatus::Active,
        };
        inner.offers.insert(offer_id, offer);
        inner.by_tag.insert(tag.clone(), campaign_id);
        inner.campaigns.insert(
            campaign_id,
            Campaign {
                id: campaign_id,
                spec,
                tag: tag.clone(),
                offer: offer_id,
                created: now,
                completions: 0,
                rejected: 0,
            },
        );
        Ok((campaign_id, tag))
    }

    /// Offers currently visible to a user browsing from `country`, in
    /// offer-id order.
    pub fn offers_for(&self, country: Country) -> Vec<Offer> {
        self.offers_page(country, 0, usize::MAX)
    }

    /// One page of [`IipPlatform::offers_for`]: the visible offers
    /// after the first `skip`, at most `take` of them. Only the page is
    /// cloned, so a wall page costs a filter over the offer table, not
    /// a copy of it.
    pub fn offers_page(&self, country: Country, skip: usize, take: usize) -> Vec<Offer> {
        self.inner
            .lock()
            .offers
            .values()
            .filter(|o| o.targets(country))
            .skip(skip)
            .take(take)
            .cloned()
            .collect()
    }

    /// All offers ever published (for analysis ground truth).
    pub fn all_offers(&self) -> Vec<Offer> {
        self.inner.lock().offers.values().cloned().collect()
    }

    /// Campaign accessor.
    pub fn campaign(&self, id: CampaignId) -> Option<Campaign> {
        self.inner.lock().campaigns.get(&id).cloned()
    }

    /// Campaign by attribution tag.
    pub fn campaign_by_tag(&self, tag: &str) -> Option<Campaign> {
        let inner = self.inner.lock();
        inner
            .by_tag
            .get(tag)
            .and_then(|id| inner.campaigns.get(id))
            .cloned()
    }

    /// Processes one mediator postback: settle the payout chain or
    /// reject the conversion. Returns the accepted split, or `None`
    /// when rejected (fraud flag on a vetting platform, exhausted cap,
    /// or ended offer).
    pub fn process_postback(&self, postback: &Postback) -> Result<Option<PayoutSplit>> {
        let mut inner = self.inner.lock();
        let campaign_id = *inner
            .by_tag
            .get(&postback.conversion.tag)
            .ok_or_else(|| Error::NotFound(format!("tag {:?}", postback.conversion.tag)))?;
        let offer_id = inner.campaigns[&campaign_id].offer;

        if postback.conversion.fraud_flag && self.profile.rejects_flagged_conversions {
            inner
                .campaigns
                .get_mut(&campaign_id)
                .expect("exists")
                .rejected += 1;
            // Rejected completions release their escrow back.
            let payout = inner.offers[&offer_id].payout;
            let dev = inner.campaigns[&campaign_id].spec.developer;
            inner.accounts.get_mut(&dev).expect("exists").balance += payout;
            return Ok(None);
        }

        let offer = inner.offers.get_mut(&offer_id).expect("exists");
        if offer.status != OfferStatus::Active || offer.remaining() == 0 {
            return Ok(None);
        }
        offer.completed += 1;
        if offer.remaining() == 0 {
            offer.status = OfferStatus::Ended;
        }
        let payout = offer.payout;
        let split = PayoutSplit::compute(
            payout,
            self.profile.iip_cut_percent,
            self.affiliate_cut_percent,
        );
        inner.settlement.settle(split);
        inner
            .campaigns
            .get_mut(&campaign_id)
            .expect("exists")
            .completions += 1;
        Ok(Some(split))
    }

    /// Ends a campaign early, refunding un-spent escrow.
    pub fn end_campaign(&self, id: CampaignId) -> Result<Usd> {
        let mut inner = self.inner.lock();
        let campaign = inner
            .campaigns
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(id.to_string()))?;
        let offer = inner.offers.get_mut(&campaign.offer).expect("exists");
        if offer.status == OfferStatus::Ended {
            return Ok(Usd::ZERO);
        }
        offer.status = OfferStatus::Ended;
        let refund = offer.payout * offer.remaining() as i64;
        inner
            .accounts
            .get_mut(&campaign.spec.developer)
            .expect("exists")
            .balance += refund;
        Ok(refund)
    }

    /// Platform-wide settlement snapshot.
    pub fn settlement(&self) -> Settlement {
        self.inner.lock().settlement.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_attribution::Conversion;

    fn developer_on(platform: &IipPlatform, deposit_dollars: i64) -> DeveloperId {
        let dev = DeveloperId(1);
        platform
            .register_developer(&DeveloperApplication {
                developer: dev,
                has_tax_id: true,
                has_bank_account: true,
                deposit: Usd::from_dollars(deposit_dollars),
            })
            .unwrap();
        dev
    }

    fn spec(dev: DeveloperId, payout_cents: i64, cap: u64) -> CampaignSpec {
        CampaignSpec {
            developer: dev,
            package: PackageName::new("com.adv.app").unwrap(),
            store_url: "https://play.iiscope/store/apps/details?id=com.adv.app".into(),
            goal: ConversionGoal::InstallAndOpen,
            payout: Usd::from_cents(payout_cents),
            cap,
            countries: vec![],
        }
    }

    fn postback(tag: &str, fraud: bool) -> Postback {
        Postback {
            conversion: Conversion {
                tag: tag.into(),
                device: iiscope_types::DeviceId(1),
                at: SimTime::EPOCH,
                fraud_flag: fraud,
            },
        }
    }

    #[test]
    fn campaign_lifecycle_with_escrow() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(1));
        let dev = developer_on(&p, 3_000);
        let (id, tag) = p
            .create_campaign(spec(dev, 6, 500), SimTime::EPOCH)
            .unwrap();
        // $30 escrowed out of $3000.
        assert_eq!(p.balance(dev).unwrap(), Usd::from_dollars(2_970));
        assert_eq!(tag, "fyber-c1");
        let c = p.campaign(id).unwrap();
        assert_eq!(c.completions, 0);
        let offers = p.offers_for(Country::Us);
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].payout, Usd::from_cents(6));
        assert!(!offers[0].description.is_empty());
    }

    #[test]
    fn insufficient_balance_rejected() {
        let p = IipPlatform::new(IipId::RankApp, SeedFork::new(2));
        let dev = DeveloperId(1);
        p.register_developer(&DeveloperApplication {
            developer: dev,
            has_tax_id: false,
            has_bank_account: false,
            deposit: Usd::from_dollars(20),
        })
        .unwrap();
        // 2000 completions × $0.02 = $40 > $20.
        assert!(p
            .create_campaign(spec(dev, 2, 2_000), SimTime::EPOCH)
            .is_err());
        assert!(p
            .create_campaign(spec(dev, 2, 1_000), SimTime::EPOCH)
            .is_ok());
    }

    #[test]
    fn postbacks_settle_until_cap() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(3));
        let dev = developer_on(&p, 3_000);
        let (id, tag) = p.create_campaign(spec(dev, 10, 3), SimTime::EPOCH).unwrap();
        for _ in 0..3 {
            assert!(p
                .process_postback(&postback(&tag, false))
                .unwrap()
                .is_some());
        }
        // Cap reached: further conversions are not paid.
        assert!(p
            .process_postback(&postback(&tag, false))
            .unwrap()
            .is_none());
        let c = p.campaign(id).unwrap();
        assert_eq!(c.completions, 3);
        assert!(p.offers_for(Country::Us).is_empty(), "offer left the wall");
        let s = p.settlement();
        assert_eq!(s.completions, 3);
        assert_eq!(s.gross(), Usd::from_cents(30));
    }

    #[test]
    fn vetted_platform_rejects_flagged_conversions_and_refunds() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(4));
        let dev = developer_on(&p, 3_000);
        let (id, tag) = p
            .create_campaign(spec(dev, 100, 10), SimTime::EPOCH)
            .unwrap();
        let before = p.balance(dev).unwrap();
        assert!(p.process_postback(&postback(&tag, true)).unwrap().is_none());
        assert_eq!(p.campaign(id).unwrap().rejected, 1);
        assert_eq!(p.balance(dev).unwrap(), before + Usd::from_dollars(1));
    }

    #[test]
    fn unvetted_platform_pays_flagged_conversions() {
        let p = IipPlatform::new(IipId::RankApp, SeedFork::new(5));
        let dev = DeveloperId(2);
        p.register_developer(&DeveloperApplication {
            developer: dev,
            has_tax_id: false,
            has_bank_account: false,
            deposit: Usd::from_dollars(20),
        })
        .unwrap();
        let (_, tag) = p
            .create_campaign(
                CampaignSpec {
                    developer: dev,
                    ..spec(dev, 2, 500)
                },
                SimTime::EPOCH,
            )
            .unwrap();
        assert!(p.process_postback(&postback(&tag, true)).unwrap().is_some());
    }

    #[test]
    fn end_campaign_refunds_remaining_escrow() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(6));
        let dev = developer_on(&p, 3_000);
        let (id, tag) = p
            .create_campaign(spec(dev, 10, 100), SimTime::EPOCH)
            .unwrap();
        p.process_postback(&postback(&tag, false)).unwrap();
        let refund = p.end_campaign(id).unwrap();
        assert_eq!(refund, Usd::from_cents(990));
        // Ending again refunds nothing.
        assert_eq!(p.end_campaign(id).unwrap(), Usd::ZERO);
        assert!(p.offers_for(Country::Us).is_empty());
    }

    #[test]
    fn geo_targeted_campaign() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(7));
        let dev = developer_on(&p, 3_000);
        let mut s = spec(dev, 10, 10);
        s.countries = vec![Country::De, Country::Us];
        p.create_campaign(s, SimTime::EPOCH).unwrap();
        assert_eq!(p.offers_for(Country::De).len(), 1);
        assert_eq!(p.offers_for(Country::In).len(), 0);
    }

    #[test]
    fn zero_cap_and_zero_payout_rejected() {
        let p = IipPlatform::new(IipId::Fyber, SeedFork::new(8));
        let dev = developer_on(&p, 3_000);
        assert!(p.create_campaign(spec(dev, 10, 0), SimTime::EPOCH).is_err());
        assert!(p.create_campaign(spec(dev, 0, 10), SimTime::EPOCH).is_err());
    }
}
